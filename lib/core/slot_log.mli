(** Growable replicated-log abstraction shared by the multi-decree
    protocols: per-slot entries plus an execution frontier. The entry
    type ['a] is protocol-specific.

    Slots fall into three regions:
    - [\[0, base)]: discarded by {!truncate} (their effect lives in a
      snapshot); nothing is kept.
    - [\[base, exec_frontier)]: the executed prefix. An executed slot
      no longer holds its entry. A log created with [~keep:(cmd, tag)]
      keeps, per executed slot, the entry's command and its tag (the
      ballot or term it was accepted at): two words, no option box and
      no per-slot record, read back with {!chosen_cmd}, {!chosen_tag}
      and {!iter_chosen} without allocating. A log created without
      [keep] keeps nothing for executed slots.
    - [\[exec_frontier, next_slot)]: the live window of entries, read
      with {!get} and mutated in place by the protocol.

    Executed slots are immutable: {!set} on a slot below the frontier
    is ignored, as it is below {!base}. *)

type ('a, 't) t

val create : ?keep:('a -> Command.t) * ('a -> 't) -> unit -> ('a, 't) t
(** An empty log. Only the live window is allocated here; the executed
    prefix starts empty. [keep] projects an entry onto what readers
    below the frontier need, captured when the frontier passes the
    slot. *)

val get : ('a, 't) t -> int -> 'a option
(** The live entry at a slot; [None] for an empty slot and for every
    slot outside the live window (executed or truncated). *)

val set : ('a, 't) t -> int -> 'a -> unit
(** Fill a slot at or above the frontier; ignored below it. Raises
    [Invalid_argument] on a negative slot. *)

val next_slot : ('a, 't) t -> int
(** One past the highest occupied slot (0 when empty). *)

val reserve : ('a, 't) t -> int
(** Allocate and return the next free slot index. *)

val exec_frontier : ('a, 't) t -> int
(** Index of the first slot not yet executed. *)

val executed : ('a, 't) t -> int -> bool
(** The slot is in the executed prefix [\[base, exec_frontier)]:
    committed, immutable, and out of the live window. *)

val advance_frontier :
  ('a, 't) t -> executable:('a -> bool) -> f:(int -> 'a -> unit) -> unit
(** Run [f] on consecutive slots starting at the frontier while each
    slot is filled and [executable]; advances the frontier past them.
    Each slot leaves the live window once [f] returns, keeping only
    its [keep] projection of the entry then in the slot. *)

val chosen_cmd : ('a, 't) t -> int -> Command.t
(** Command of an executed slot in [\[base, exec_frontier)]. Raises
    [Invalid_argument] outside that range or when the log keeps
    nothing. *)

val chosen_tag : ('a, 't) t -> int -> 't
(** Tag of an executed slot, as for {!chosen_cmd}. *)

val iter_chosen :
  ('a, 't) t -> start:int -> f:(int -> Command.t -> 't -> unit) -> unit
(** [f slot cmd tag] over the executed slots from [max start base] up
    to the frontier, in slot order; nothing when the log keeps
    nothing. *)

val iter_from : ('a, 't) t -> start:int -> f:(int -> 'a -> unit) -> unit
(** [f slot entry] over the filled live slots from [max start
    exec_frontier], in slot order. *)

val iter_filled : ('a, 't) t -> f:(int -> 'a -> unit) -> unit
(** {!iter_from} the frontier: every filled live slot. *)

val filled_count : ('a, 't) t -> int
(** Filled slots at or above {!base}: executed plus live. *)

val base : ('a, 't) t -> int
(** First slot still held in the log; slots below it were discarded by
    {!truncate}. 0 until the first truncation. *)

val truncate : ('a, 't) t -> upto:int -> unit
(** Discard every slot below [upto] (exclusive) and raise {!base} to
    it: the discarded prefix is freed, [set] below [base] is ignored,
    and the execution frontier is advanced to at least [upto] (a
    snapshot at [upto - 1] subsumes execution of the prefix). No-op
    when [upto <= base]. *)
