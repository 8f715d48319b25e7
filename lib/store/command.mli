(** Client commands over the key-value state machine.

    A command records who issued it and a unique identifier, so that
    replicas can deduplicate and the offline checkers can match
    invocations to responses. The conflict relation ([same key, at
    least one write]) is the one EPaxos and the paper's workload
    generator use. *)

type key = int
type value = int

type op =
  | Get of key
  | Put of key * value
  | Delete of key

type t = { id : int; client : int; op : op }

val make : id:int -> client:int -> op -> t

val uid_of : client:int -> id:int -> int
(** [(client lsl 32) lor (id land 0xFFFF_FFFF)]: a [(client, id)] pair
    packed into one unboxed int — distinct for distinct pairs while
    ids fit in 32 bits. Used to key per-command tables without
    allocating a tuple per key. *)

val uid : t -> int
(** [uid_of ~client:c.client ~id:c.id]. *)

val key : t -> key
val is_write : t -> bool
val is_read : t -> bool

val conflicts : t -> t -> bool
(** Two commands interfere when they touch the same key and at least
    one of them writes. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val noop : t
(** Distinguished no-op used to fill recovered log slots. *)

val is_noop : t -> bool
