(** In-memory multi-version key-value datastore (§4.1 Data store).

    Every write creates a new version; the full version chain of every
    key is retained so the consensus checker can compare per-node
    histories, as the paper does with its multi-version store.

    A version is stored as its writer command alone (one word in a
    growable per-key array): its value and sequence number are derived
    from the writer and its position, so a writer must carry the write
    it records — [put] takes a [Put (k, v)] and [delete] a
    [Delete k]. *)

type t

type version = {
  value : Command.value option;
      (** [Some v] for a [Put (_, v)] writer, [None] for a delete *)
  seq : int;  (** position in this key's version chain, from 1 *)
  writer : Command.t;  (** the command that created this version *)
}

val create : unit -> t
val get : t -> Command.key -> Command.value option
(** Latest live value; [None] if absent or deleted. Allocates
    nothing. *)

val put : t -> Command.t -> Command.key -> Command.value -> unit
(** [put t writer k v] records a version of [k] with value [v].
    Raises [Invalid_argument] unless [writer]'s op is [Put (k, v)]. *)

val delete : t -> Command.t -> Command.key -> unit
(** [delete t writer k] records a deletion of [k]. Raises
    [Invalid_argument] unless [writer]'s op is [Delete k]. *)

val versions : t -> Command.key -> version list
(** Oldest first, as fresh records derived from the writers. *)

val keys : t -> Command.key list
val size : t -> int
(** Number of keys ever written. *)
