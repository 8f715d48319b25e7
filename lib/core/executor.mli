(** Exactly-once command execution over a replica's state machine.

    Consensus may decide the same command in more than one slot when
    clients retry after a timeout; the executor applies each distinct
    [(client, id)] once. For every applied command it keeps one bit
    (an executed-uid bitmap, 32 consecutive ids of a client per table
    entry); a read that returned [Some v] also keeps [v]. So a command
    decided again is not re-applied, and its reply carries the result
    of the first execution: the original read value, or [None] for a
    write or a read of an absent key. *)

type t

val create : unit -> t

val execute : t -> Command.t -> Command.value option
(** Apply the command and return its read value. A command already
    applied is not applied again and returns its first result. No-ops
    return [None] and are not applied. *)

val read : t -> Command.t -> Command.value option
(** Peek at the current value of a [Get]'s key without consuming a
    slot or touching the executed set — the fast read path (lease, ABD
    and tail reads). Returns [None] for writes and absent keys. *)

val already_executed : t -> Command.t -> bool
val state_machine : t -> State_machine.t
val executed_count : t -> int
(** Distinct commands applied (excludes no-ops and duplicates). *)

val image : t -> Command.t array
(** The applied-command prefix, oldest first: a snapshot image that
    {!install} replays to rebuild the store, executed set and applied
    sequence exactly (no-ops are never applied, so never appear). *)

val install : t -> Command.t array -> unit
(** Reset to [image]: replay every command through a fresh state
    machine, deterministically reconstructing the KV — the receiving
    half of snapshot install and crash recovery. *)
