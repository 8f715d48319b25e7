(** Quorum systems (§4.1): simple majority, fast quorums, grid,
    flexible grid and group quorums, behind the two-call interface the
    paper describes — [ack] votes and [satisfied] queries — plus
    offline intersection validators used by tests and by protocol
    configuration sanity checks.

    Replica identifiers are small integers [0 .. n-1]. *)

type spec =
  | Majority of int list
      (** A strict majority of the listed members. *)
  | Count of { members : int list; threshold : int }
      (** Any [threshold] of [members]; FPaxos phase-2 quorums are
          [Count] with [threshold < majority]. *)
  | Fast of int list
      (** EPaxos-style fast quorum: [⌈3n/4⌉] of the members. *)
  | Zones of { zones : int list list; need_zones : int; per_zone : per_zone }
      (** Zone-structured quorums: [need_zones] distinct zones must
          each contribute [per_zone]. WPaxos phase-1 uses
          [need_zones = Z - fz]; phase-2 uses [need_zones = fz + 1],
          both with [Per_zone_majority]. A classic grid quorum is one
          full row ([Per_zone_all] over rows) against one full
          column. *)

and per_zone = Per_zone_majority | Per_zone_all

val majority_threshold : int -> int
(** [⌊n/2⌋ + 1]. *)

val fast_threshold : int -> int
(** [⌈3n/4⌉]. *)

val members : spec -> int list
(** All replicas that may vote, without duplicates. *)

val min_size : spec -> int
(** Size of the smallest satisfying set. *)

(** {1 Vote trackers} *)

type t

val create : spec -> t

val fresh : t -> t
(** An unacked tracker over the same spec as the given one — a
    per-replica template. Spec and member list are shared; only the
    per-member flags are copied, so a per-proposal tracker costs one
    small allocation instead of re-deriving the member set. The
    template itself is left untouched. *)

val ack : t -> int -> unit
(** Record a positive vote; unknown or duplicate voters are ignored. *)

val nack : t -> int -> unit
(** Record a rejection. *)

val satisfied : t -> bool
val rejected : t -> bool
(** [true] once enough members nacked that [satisfied] can never
    become true. *)

val acks : t -> int list
val nacks : t -> int list
val reset : t -> unit
val spec : t -> spec

(** {1 Static validation} *)

val is_quorum : spec -> int list -> bool
(** Does this exact set of acks satisfy the spec? *)

val minimal_quorums : spec -> int list list
(** All minimal satisfying sets. Exponential; intended for validating
    small configurations (n ≤ 16) in tests. *)

val intersects : spec -> spec -> bool
(** Every minimal quorum of one spec shares a member with every minimal
    quorum of the other — the FPaxos safety condition for q1/q2. *)
