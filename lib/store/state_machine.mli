(** Deterministic replicated state machine over the multi-version
    store. Each replica owns one instance; commands are applied in
    commit order, and the full applied sequence is retained for the
    consensus checker (common-prefix validation across replicas). *)

type t

type result = { command : Command.t; read : Command.value option }
(** What a command execution returned: reads carry the value observed,
    writes echo [None]. *)

val create : unit -> t
val apply : t -> Command.t -> result
(** Apply the next committed command. No-ops leave the store
    untouched. Duplicate application of the same command id is applied
    again (deduplication is the protocol's job); tests rely on this to
    catch protocols that double-commit. *)

val applied : t -> Command.t array
(** All applied commands, oldest first, as a fresh array (a copy:
    later applies do not show in it). *)

val applied_count : t -> int
val store : t -> Kv.t
val key_history : t -> Command.key -> Command.t list
(** Writers of each version of [key], oldest first — the per-record
    history H^r the consensus checker collects from every node. *)
