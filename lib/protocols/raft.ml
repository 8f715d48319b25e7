type entry = { term : int; cmd : Command.t; client : Address.t option }

type message =
  | RequestVote of { term : int; last_index : int; last_term : int }
  | VoteReply of { term : int; granted : bool }
  | AppendEntries of {
      term : int;
      prev_index : int;
      prev_term : int;
      entries : entry list;
      leader_commit : int;
    }
  | AppendReply of { term : int; success : bool; match_index : int }
  | RelayAppend of { gen : int; inner : message }
      (** leader → relay (Config.relay_groups > 0): apply the inner
          AppendEntries locally, fan it to the rotation group, and
          aggregate the group's replies into one [RelayAppendAck] *)
  | FanAppend of { origin : int; inner : message }
      (** relay → group member: process [inner] as if it came from
          leader [origin] (leader identity, lease grant), but reply to
          the relay so it can aggregate *)
  | RelayAppendAck of { term : int; gen : int; expected : int; bits : int }
      (** aggregated success replies for the round that establishes
          match index [expected]; bit i = plan-group member i accepted *)
  | InstallSnapshot of {
      term : int;
      last_index : int;
      last_term : int;
      image : Command.t array;
    }
      (** leader → lagging follower whose next_index fell below the
          leader's compacted log base: the applied-command image
          through [last_index] (exclusive), replayed to rebuild the
          follower's state machine; answered with an ordinary
          [AppendReply] at [last_index] *)

let name = "raft"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | RequestVote _ -> "RequestVote"
  | VoteReply _ -> "VoteReply"
  | AppendEntries _ -> "AppendEntries"
  | AppendReply _ -> "AppendReply"
  | RelayAppend _ -> "RelayAppend"
  | FanAppend _ -> "FanAppend"
  | RelayAppendAck _ -> "RelayAppendAck"
  | InstallSnapshot _ -> "InstallSnapshot"

type role = Follower | Candidate | Leader

type replica = {
  env : message Proto.env;
  mutable term : int;
  mutable voted_for : int option;
  mutable state : role;
  mutable leader_id : int option;
  log : (entry, int) Slot_log.t;
      (* executed slots keep only their command and term *)
  mutable commit_index : int; (* one past last committed slot *)
  exec : Executor.t;
  mutable next_index : int array;
  mutable match_index : int array; (* one past last known replicated *)
  mutable votes : Quorum.t option;
  mutable last_heard : float;
  mutable election_deadline : float;
  pending : (Address.t * Proto.request) Queue.t;
  (* leader command batching (Config.batching): entries appended since
     the last replication round, and the pending deferred-flush timer *)
  mutable unflushed : int;
  mutable flush_timer : Sim.handle; (* Sim.nil when no flush is pending *)
  (* reliable-delivery bookkeeping: the key of the open append post
     covering each follower (0 = none) and the match_index that post
     expects back — a success reply at or past it is the ack *)
  mutable append_key : int array;
  mutable inflight_match : int array;
  (* Leader-lease read path (config.read_path = Lease; PR 7). The
     lease rides on the append traffic: every outgoing AppendEntries
     is a probe, and any reply of the current term proves the follower
     reset its election timer (and granted) after the probe left.
     [probe_sent_at.(i)] is the send time of the oldest unanswered
     probe to i ([neg_infinity] = none outstanding: a skewed local clock
     can read 0 or less); [acked_at.(i)] the latest such
     proven-contact time. The lease extends to the majority-th largest
     acked_at plus the minimum election delay. *)
  mutable probe_sent_at : float array;
  mutable acked_at : float array;
  mutable lease_until : float;
  mutable lease_holder : int;
  mutable lease_granted_until : float;
  mutable read_barrier : int;
  pending_reads : (Address.t * Proto.request) Queue.t;
  mutable local_reads : int;
  (* ---- relay trees (Config.relay_groups > 0; DESIGN.md §12) ---- *)
  relay_plans : Relay.plans;
  relay_aggs : (int, Relay.agg) Hashtbl.t;
      (* relay side: in-flight rounds keyed by the match index they
         establish (strictly increasing, so keys never collide) *)
  relay_pool : Relay.pool;
  mutable relay_seq : int;
  mutable relay_bump : int;
  mutable relay_bypass_until : float;
  mutable relay_dsts : int list; (* leader: cached relay ids *)
  mutable relay_dsts_gen : int;
  mutable relay_fan : int list; (* relay: cached own group minus self *)
  mutable relay_fan_gen : int;
  mutable relay_akey : int; (* leader: open relay-round post (0 = none) *)
  mutable relay_expected : int; (* match index that round establishes *)
  mutable relay_fb : Sim.handle; (* leader: relay fallback timer *)
  (* ---- stable storage + log compaction (Config.storage; §14) ---- *)
  mutable snap : (int * int * Command.t array) option;
      (* latest snapshot taken or installed here: (one past last
         included index, last included term, applied-command image) *)
  mutable snap_term : int; (* term of the entry at [log base - 1] *)
  mutable snapshots : int; (* snapshots taken locally *)
}

let all_ids (t : replica) = List.init t.env.n (fun i -> i)

let entry_cmd (e : entry) = e.cmd
let entry_term (e : entry) = e.term
let keep = Some (entry_cmd, entry_term)

let create env =
  {
    env;
    term = 0;
    voted_for = None;
    state = Follower;
    leader_id = None;
    log = Slot_log.create ?keep ();
    commit_index = 0;
    exec = Executor.create ();
    next_index = Array.make env.Proto.n 0;
    match_index = Array.make env.Proto.n 0;
    votes = None;
    last_heard = 0.0;
    election_deadline = 0.0;
    pending = Queue.create ();
    unflushed = 0;
    flush_timer = Sim.nil;
    append_key = Array.make env.Proto.n 0;
    inflight_match = Array.make env.Proto.n 0;
    probe_sent_at = Array.make env.Proto.n neg_infinity;
    acked_at = Array.make env.Proto.n neg_infinity;
    lease_until = neg_infinity;
    lease_holder = -1;
    lease_granted_until = neg_infinity;
    read_barrier = 0;
    pending_reads = Queue.create ();
    local_reads = 0;
    relay_plans = Relay.plans ();
    relay_aggs = Hashtbl.create 16;
    relay_pool = Relay.pool ();
    relay_seq = 0;
    relay_bump = 0;
    relay_bypass_until = neg_infinity;
    relay_dsts = [];
    relay_dsts_gen = min_int;
    relay_fan = [];
    relay_fan_gen = min_int;
    relay_akey = 0;
    relay_expected = 0;
    relay_fb = Sim.nil;
    snap = None;
    snap_term = 0;
    snapshots = 0;
  }

let role t = t.state
let current_term t = t.term
let commit_index t = t.commit_index
let executor t = t.exec
let log_length t = Slot_log.next_slot t.log
let local_reads_served t = t.local_reads
let log_base t = Slot_log.base t.log
let snapshots_taken t = t.snapshots

let lease_mode t =
  match t.env.Proto.config.Config.read_path with
  | Some (Config.Lease _) -> true
  | _ -> false

let lease_margin t =
  match t.env.Proto.config.Config.read_path with
  | Some (Config.Lease { margin_ms }) -> margin_ms
  | _ -> 0.0

(* A follower that heard from the leader waits at least
   [base + U(0, base)] before standing for election, so [base] is the
   window a proven contact buys — the same length the follower grants
   and refuses foreign votes for. *)
let lease_window t = t.env.Proto.config.Config.failover_timeout_ms

let lease_valid t =
  t.state = Leader
  && t.commit_index > t.read_barrier
  && t.env.Proto.now () < t.lease_until -. lease_margin t

let log_term_at t i =
  if Slot_log.executed t.log i then Some (Slot_log.chosen_tag t.log i)
  else Option.map (fun (e : entry) -> e.term) (Slot_log.get t.log i)

let leader_of_key t (_ : Command.key) = t.leader_id

let last_index t = Slot_log.next_slot t.log - 1

let term_at t i =
  if i < 0 then 0
  else if i = Slot_log.base t.log - 1 then
    (* the slot right below the compacted base: its term survives in
       the snapshot record so consistency checks still line up *)
    t.snap_term
  else if Slot_log.executed t.log i then Slot_log.chosen_tag t.log i
  else match Slot_log.get t.log i with Some e -> e.term | None -> 0

(* The log from [next] on, as the leader ships it: live entries as
   they are, executed ones rebuilt from their command and term
   (followers drop [client] on receipt either way). *)
let tail_entries t ~next =
  let entries = ref [] in
  for i = last_index t downto next do
    if Slot_log.executed t.log i then
      entries :=
        {
          term = Slot_log.chosen_tag t.log i;
          cmd = Slot_log.chosen_cmd t.log i;
          client = None;
        }
        :: !entries
    else
      match Slot_log.get t.log i with
      | Some e -> entries := e :: !entries
      | None -> ()
  done;
  !entries

(* ---- stable storage (Config.storage; DESIGN.md §14) ----------------
   Register 0 holds the durable term, register 1 the durable vote
   ([voted_for + 1]; 0 = none). The durable log holds every appended
   (slot, term, command); snapshots compact it below the applied
   frontier. Votes and append acks leave only once the fsync covering
   their records completes; with [Config.storage] unset every branch
   falls through to the original path, keeping memory-only runs
   byte-identical. *)

let durable_term_ops t =
  [
    Storage.Reg (0, t.term);
    Storage.Reg (1, (match t.voted_for with Some v -> v + 1 | None -> 0));
  ]

let entry_op ~slot (e : entry) =
  Storage.Entry (slot, { Storage.a = e.term; b = 0; cmd = e.cmd })

let reset_election_timer t =
  let base = t.env.config.Config.failover_timeout_ms in
  t.election_deadline <-
    t.env.now () +. base +. Rng.float t.env.rng base

(* Threshold log compaction (Raft §7): once the applied prefix since
   the last compaction reaches [snapshot_threshold], capture the
   state-machine image, persist it with a [Truncate], and drop the
   in-memory slots below the frontier. The in-memory log truncates
   immediately (it is volatile either way); durability of the
   snapshot rides the next fsync, and a crash before it completes
   simply recovers from the previous image plus the longer log. *)
let maybe_snapshot t =
  match t.env.Proto.storage with
  | None -> ()
  | Some st ->
      let thr = Storage.snapshot_threshold st in
      let applied = Slot_log.exec_frontier t.log in
      if thr > 0 && applied - Slot_log.base t.log >= thr then begin
        let image = Executor.image t.exec in
        t.snap_term <- term_at t (applied - 1);
        t.snap <- Some (applied, t.snap_term, image);
        Storage.write st (Storage.Snapshot (applied, t.snap_term, image));
        Storage.write st (Storage.Truncate applied);
        Storage.sync st ignore;
        Slot_log.truncate t.log ~upto:applied;
        t.snapshots <- t.snapshots + 1
      end

(* Apply committed entries in order; leaders answer recorded clients. *)
let apply_committed t =
  Slot_log.advance_frontier t.log
    ~executable:(fun (e : entry) ->
      ignore e;
      Slot_log.exec_frontier t.log < t.commit_index)
    ~f:(fun _i (e : entry) ->
      let read = Executor.execute t.exec e.cmd in
      match e.client with
      | Some client ->
          t.env.reply client
            {
              Proto.command = e.cmd;
              read;
              replier = t.env.id;
              leader_hint = t.leader_id;
            }
      | None -> ());
  maybe_snapshot t

(* Serve a read from the local state machine without consuming a
   slot: legal exactly while {!lease_valid} holds. *)
let serve_local_read t ~client (request : Proto.request) =
  let read = Executor.read t.exec request.Proto.command in
  t.local_reads <- t.local_reads + 1;
  t.env.obs.Proto.on_read ();
  t.env.reply client
    {
      Proto.command = request.Proto.command;
      read;
      replier = t.env.id;
      leader_hint = Some t.env.id;
    }

let maybe_serve_reads t =
  while lease_valid t && not (Queue.is_empty t.pending_reads) do
    let client, request = Queue.pop t.pending_reads in
    serve_local_read t ~client request
  done

(* Every append (probe) may extend the lease once answered; remember
   the oldest outstanding send time per follower — conservative, since
   the follower's grant starts no earlier than the probe that reached
   it. *)
let note_probe t dsts =
  if lease_mode t then
    let now = t.env.now () in
    List.iter
      (fun f ->
        if t.probe_sent_at.(f) = neg_infinity then t.probe_sent_at.(f) <- now)
      dsts

(* The lease holds as long as a majority (self included) was in
   contact within the last window: sort contact times ascending and
   take the majority-th largest — that instant plus the window is the
   earliest any majority member could start helping a rival. *)
let recompute_lease t =
  if lease_mode t && t.state = Leader then begin
    let contact = Array.copy t.acked_at in
    contact.(t.env.id) <- t.env.now ();
    Array.sort Float.compare contact;
    let pivot = contact.(t.env.n - Config.majority t.env.config) in
    let until = pivot +. lease_window t in
    if until > t.lease_until then begin
      t.lease_until <- until;
      maybe_serve_reads t
    end
  end

(* With batching on, an AppendEntries carrying k entries costs k
   message sizes on the wire (but still one t_in/t_out) — without it,
   sends keep the flat per-message default so unbatched runs are
   bit-identical to the pre-batching simulator. *)
let append_size t entries =
  match t.env.config.Config.batching with
  | Some _ ->
      Stdlib.max 1 (List.length entries) * t.env.config.Config.msg_size_bytes
  | None -> t.env.config.Config.msg_size_bytes

(* ---- relay trees (Config.relay_groups = r > 0; DESIGN.md §12) ----

   Mirrors the Paxos integration: a uniform replication round is
   wrapped in [RelayAppend] and posted to one relay per rotation
   group; relays apply it locally, fan [FanAppend] to their group, and
   aggregate the members' AppendReplies into one [RelayAppendAck]
   bitmap. Everything below is guarded so a [relay_groups = 0] run
   never reaches any of it — no messages, no timers, no RNG draws —
   keeping the direct path byte-identical. *)

let relay_on t = t.env.config.Config.relay_groups > 0
let relay_route t = relay_on t && t.env.now () >= t.relay_bypass_until
let relay_gen t = Relay.gen_of_seq ~seq:t.relay_seq ~bump:t.relay_bump

let relay_plan t ~leader ~gen =
  Relay.find t.relay_plans ~n:t.env.n ~leader
    ~r:t.env.config.Config.relay_groups ~gen

let relay_targets t ~gen (plan : Relay.plan) =
  if t.relay_dsts_gen <> gen then begin
    t.relay_dsts <-
      Array.to_list (Array.map (fun g -> g.(0)) plan.Relay.groups);
    t.relay_dsts_gen <- gen
  end;
  t.relay_dsts

let relay_fan_list t ~leader ~gen (plan : Relay.plan) gi =
  let key = (gen lsl 10) lor leader in
  if t.relay_fan_gen <> key then begin
    let g = plan.Relay.groups.(gi) in
    let rec tail i acc = if i < 1 then acc else tail (i - 1) (g.(i) :: acc) in
    t.relay_fan <- tail (Array.length g - 1) [];
    t.relay_fan_gen <- key
  end;
  t.relay_fan

let relay_fallback_ms t = t.env.config.Config.failover_timeout_ms /. 8.0

let relay_flush_ms t =
  match t.env.config.Config.retransmit with
  | Some r when r.Config.max_tries > 0 -> r.Config.base_ms
  | _ -> relay_fallback_ms t

(* A relay round stalled (dead or slow relay): rotate the plan and
   send direct until the window closes, re-partitioning the silent
   relay out of its post. *)
let relay_stall t =
  t.relay_bump <- t.relay_bump + 1;
  t.relay_bypass_until <-
    t.env.now () +. t.env.config.Config.failover_timeout_ms

let relay_send_ack t expected (a : Relay.agg) =
  t.env.send a.Relay.a_leader
    (RelayAppendAck
       {
         term = a.Relay.a_tag;
         gen = a.Relay.a_gen;
         expected;
         bits = a.Relay.a_bits;
       })

let relay_drop t expected (a : Relay.agg) =
  if not (Sim.is_nil a.Relay.a_flush) then t.env.Proto.cancel a.Relay.a_flush;
  a.Relay.a_flush <- Sim.nil;
  Hashtbl.remove t.relay_aggs expected;
  Relay.release t.relay_pool a

(* Drop every relay-side aggregation record (our term moved on, or we
   are becoming a candidate/leader ourselves). *)
let relay_reset t =
  if Hashtbl.length t.relay_aggs > 0 then
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.relay_aggs []
    |> List.iter (fun (k, a) -> relay_drop t k a)

let relay_finalize t expected (a : Relay.agg) =
  a.Relay.a_complete <- true;
  if not (Sim.is_nil a.Relay.a_flush) then begin
    t.env.Proto.cancel a.Relay.a_flush;
    a.Relay.a_flush <- Sim.nil
  end;
  if t.env.obs.Proto.active then
    t.env.obs.Proto.on_relay ~start_ms:a.Relay.a_t0 ~end_ms:(t.env.now ());
  relay_send_ack t expected a

(* Partial-ack flush: a group member is slow or dead — report the bits
   we do have so the leader's majority can complete through the other
   groups, then keep waiting. Records superseded by a newer term are
   dropped instead of re-armed. *)
let rec relay_flush t expected =
  match Hashtbl.find_opt t.relay_aggs expected with
  | Some a when not a.Relay.a_complete ->
      a.Relay.a_flush <- Sim.nil;
      if a.Relay.a_tag = t.term && t.state <> Leader then begin
        relay_send_ack t expected a;
        a.Relay.a_flush <-
          t.env.schedule (relay_flush_ms t) (fun () -> relay_flush t expected)
      end
      else relay_drop t expected a
  | _ -> ()

(* Completed records linger so a duplicate [RelayAppend] (the leader's
   retransmission racing our ack) gets a full-ack resend; prune them
   once their match index commits, amortized behind a size
   threshold. *)
let relay_prune t =
  if Hashtbl.length t.relay_aggs > 128 then
    Hashtbl.fold
      (fun expected (a : Relay.agg) acc ->
        if expected <= t.commit_index then (expected, a) :: acc else acc)
      t.relay_aggs []
    |> List.iter (fun (expected, a) -> relay_drop t expected a)

(* A member's success reply arriving at its relay: fold it into the
   aggregation bitmap. Returns [false] when the reply is not ours to
   absorb — the caller runs the normal leader-side path. Failure
   replies are never absorbed; a diverged member heals through the
   leader's direct keepalive path. *)
let relay_absorb_reply t ~src ~term ~success ~match_index =
  if t.state = Leader || (not (relay_on t)) || not success then false
  else
    match Hashtbl.find_opt t.relay_aggs match_index with
    | Some a when a.Relay.a_tag = term ->
        let i = Relay.position a src in
        if i >= 0 then begin
          Relay.set_bit a i;
          if (not a.Relay.a_complete) && Relay.complete a then
            relay_finalize t match_index a
        end;
        true
    | _ -> false

(* Ship the tail from [next] to [dsts] (who all share that
   next_index). A non-empty tail goes through the reliable layer: any
   post still covering a destination is superseded first (settled and
   re-posted with the current tail), so at most one append post is
   open per follower and it always carries the freshest state. An
   empty tail is a plain probe — nothing to recover. *)
(* A follower's next_index fell below our compacted base: the slots it
   needs are gone, so ship the state-machine image instead. Answered
   with an ordinary AppendReply at the image's frontier; a lost copy
   re-triggers through the usual nack/backoff path. *)
let send_install_snapshot t ~dsts =
  match t.snap with
  | None -> ()
  | Some (last, last_term, image) ->
      let size_bytes =
        Stdlib.max 1 (Array.length image) * t.env.config.Config.msg_size_bytes
      in
      note_probe t dsts;
      t.env.multicast_sized dsts ~size_bytes
        (InstallSnapshot { term = t.term; last_index = last; last_term; image })

let post_append_tail t ~dsts ~next =
  let prev_index = next - 1 in
  let entries = tail_entries t ~next in
  let msg =
    AppendEntries
      {
        term = t.term;
        prev_index;
        prev_term = term_at t prev_index;
        entries;
        leader_commit = t.commit_index;
      }
  in
  let size_bytes = append_size t entries in
  note_probe t dsts;
  List.iter
    (fun f ->
      if t.append_key.(f) <> 0 then begin
        t.env.rel.settle ~dst:f ~key:t.append_key.(f);
        t.append_key.(f) <- 0;
        t.inflight_match.(f) <- 0
      end)
    dsts;
  if entries = [] then t.env.multicast_sized dsts ~size_bytes msg
  else begin
    let key = t.env.rel.post_multi ~size_bytes ~ack:Reliable.Piggyback dsts msg in
    let expected = prev_index + 1 + List.length entries in
    List.iter
      (fun f ->
        t.append_key.(f) <- key;
        t.inflight_match.(f) <- expected)
      dsts
  end

let post_append t ~dsts ~next =
  if next < Slot_log.base t.log then send_install_snapshot t ~dsts
  else post_append_tail t ~dsts ~next

let send_append t follower =
  post_append t ~dsts:[ follower ] ~next:t.next_index.(follower)

(* Group followers that share the same next_index so the CPU
   serializes the batch once (etcd replicates a shared log the same
   way); stragglers with a lagging next_index get tailored sends. *)
let rec broadcast_append t =
  (* every replication round ships the full unreplicated tail, so any
     deferred batch flush is satisfied by it *)
  t.unflushed <- 0;
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  if not (relay_broadcast_append t) then begin
    let groups = Hashtbl.create 4 in
    List.iter
      (fun i ->
        if i <> t.env.id then begin
          let next = t.next_index.(i) in
          let members =
            Option.value (Hashtbl.find_opt groups next) ~default:[]
          in
          Hashtbl.replace groups next (i :: members)
        end)
      (all_ids t);
    Hashtbl.iter (fun next members -> post_append t ~dsts:members ~next) groups
  end

(* Route one replication round through the relays. Applies only when
   every follower shares the same next_index — so one wrapped
   AppendEntries serves every group — and the tail is non-empty;
   stragglers and keepalives always go direct. Returns whether the
   round was routed. *)
and relay_broadcast_append t =
  relay_route t
  &&
  let next = t.next_index.((t.env.id + 1) mod t.env.n) in
  let uniform = ref (last_index t >= next) in
  for i = 0 to t.env.n - 1 do
    if i <> t.env.id && t.next_index.(i) <> next then uniform := false
  done;
  !uniform
  && begin
       (* supersede the previous relay round and any direct posts *)
       if t.relay_akey <> 0 then begin
         t.env.rel.settle_all ~key:t.relay_akey;
         t.relay_akey <- 0
       end;
       if not (Sim.is_nil t.relay_fb) then begin
         t.env.Proto.cancel t.relay_fb;
         t.relay_fb <- Sim.nil
       end;
       for f = 0 to t.env.n - 1 do
         if f <> t.env.id && t.append_key.(f) <> 0 then begin
           t.env.rel.settle ~dst:f ~key:t.append_key.(f);
           t.append_key.(f) <- 0;
           t.inflight_match.(f) <- 0
         end
       done;
       let prev_index = next - 1 in
       let entries = tail_entries t ~next in
       let inner =
         AppendEntries
           {
             term = t.term;
             prev_index;
             prev_term = term_at t prev_index;
             entries;
             leader_commit = t.commit_index;
           }
       in
       (* every follower is probed through its relay this round *)
       if lease_mode t then
         note_probe t (List.filter (fun i -> i <> t.env.id) (all_ids t));
       let gen = relay_gen t in
       t.relay_seq <- t.relay_seq + 1;
       let plan = relay_plan t ~leader:t.env.id ~gen in
       t.relay_akey <-
         t.env.rel.post_multi ~size_bytes:(append_size t entries)
           ~ack:Reliable.Piggyback
           (relay_targets t ~gen plan)
           (RelayAppend { gen; inner });
       t.relay_expected <- prev_index + 1 + List.length entries;
       t.relay_fb <-
         t.env.schedule (relay_fallback_ms t) (fun () -> relay_fallback t);
       true
     end

(* The leader gave a relay round [relay_fallback_ms] and the round's
   match index still has not committed: withdraw the post, rotate the
   plan, and re-ship the tail direct for a bypass window. *)
and relay_fallback t =
  t.relay_fb <- Sim.nil;
  if t.state = Leader && t.relay_akey <> 0 then begin
    t.env.rel.settle_all ~key:t.relay_akey;
    t.relay_akey <- 0;
    if t.commit_index < t.relay_expected then begin
      relay_stall t;
      broadcast_append t
    end
  end

(* The beat when there is nothing to flush: empty appends grouped by
   next_index. They keep election timers quiet and carry the commit
   frontier; lost-append recovery is the reliable layer's job, so the
   beat no longer re-ships the unreplicated tail. *)
let broadcast_keepalive t =
  let groups = Hashtbl.create 4 in
  List.iter
    (fun i ->
      if i <> t.env.id then begin
        let next = t.next_index.(i) in
        let members = Option.value (Hashtbl.find_opt groups next) ~default:[] in
        Hashtbl.replace groups next (i :: members)
      end)
    (all_ids t);
  Hashtbl.iter
    (fun next members ->
      let prev_index = next - 1 in
      note_probe t members;
      t.env.multicast_sized members ~size_bytes:(append_size t [])
        (AppendEntries
           {
             term = t.term;
             prev_index;
             prev_term = term_at t prev_index;
             entries = [];
             leader_commit = t.commit_index;
           }))
    groups

let relay_clear_leader t =
  if relay_on t then begin
    t.relay_akey <- 0;
    if not (Sim.is_nil t.relay_fb) then begin
      t.env.Proto.cancel t.relay_fb;
      t.relay_fb <- Sim.nil
    end;
    relay_reset t
  end

let advance_commit t =
  (* Largest index replicated on a majority with an entry of the
     current term (Raft's commit rule). *)
  let sorted = Array.copy t.match_index in
  Array.sort Int.compare sorted;
  (* the majority-th smallest match: at least majority replicas have
     match_index >= this value *)
  let majority_match = sorted.(t.env.n - Config.majority t.env.config) in
  if majority_match > t.commit_index && term_at t (majority_match - 1) = t.term
  then begin
    let old = t.commit_index in
    t.commit_index <- majority_match;
    for slot = old to majority_match - 1 do
      t.env.obs.Proto.on_quorum ~slot
    done;
    apply_committed t;
    (* the barrier committing may unblock queued lease reads *)
    if lease_mode t then maybe_serve_reads t
  end

let become_leader t =
  t.state <- Leader;
  t.leader_id <- Some t.env.id;
  t.votes <- None;
  relay_clear_leader t;
  let len = Slot_log.next_slot t.log in
  t.next_index <- Array.make t.env.n len;
  t.match_index <- Array.make t.env.n 0;
  t.append_key <- Array.make t.env.n 0;
  t.inflight_match <- Array.make t.env.n 0;
  t.probe_sent_at <- Array.make t.env.n neg_infinity;
  t.acked_at <- Array.make t.env.n neg_infinity;
  t.lease_until <- neg_infinity;
  (* No-op barrier: an entry of the new term lets the leader commit
     any uncommitted tail from previous terms (Raft §5.4.2). Lease
     reads additionally wait for it to commit ([read_barrier]), so a
     fresh leader never serves a read before applying every write its
     predecessors could have acknowledged. *)
  let barrier = Slot_log.reserve t.log in
  let be = { term = t.term; cmd = Command.noop; client = None } in
  Slot_log.set t.log barrier be;
  t.read_barrier <- barrier;
  (match t.env.Proto.storage with
  | None -> t.match_index.(t.env.id) <- barrier + 1
  | Some st -> Storage.write st (entry_op ~slot:barrier be));
  broadcast_append t;
  while not (Queue.is_empty t.pending) do
    let client, request = Queue.pop t.pending in
    let slot = Slot_log.reserve t.log in
    let e = { term = t.term; cmd = request.Proto.command; client = Some client } in
    Slot_log.set t.log slot e;
    match t.env.Proto.storage with
    | None -> t.match_index.(t.env.id) <- slot + 1
    | Some st -> Storage.write st (entry_op ~slot e)
  done;
  (match t.env.Proto.storage with
  | None -> ()
  | Some st ->
      (* the leader's own match counts only once its entries are on
         disk; one fsync covers the barrier and the drained backlog *)
      let top = Slot_log.next_slot t.log in
      let term = t.term in
      Storage.sync st (fun () ->
          if t.state = Leader && t.term = term then begin
            if top > t.match_index.(t.env.id) then
              t.match_index.(t.env.id) <- top;
            advance_commit t
          end));
  if Slot_log.next_slot t.log > len then broadcast_append t

let become_follower t ~term =
  if term > t.term then begin
    t.term <- term;
    t.voted_for <- None
  end;
  t.state <- Follower;
  t.votes <- None;
  t.unflushed <- 0;
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  t.lease_until <- neg_infinity;
  (* queued lease reads go back to [pending] and get forwarded *)
  Queue.transfer t.pending_reads t.pending;
  (* open append posts belong to a leadership this replica just lost *)
  t.env.rel.unpost_all ();
  relay_clear_leader t;
  reset_election_timer t

let start_election t =
  t.term <- t.term + 1;
  t.state <- Candidate;
  t.voted_for <- Some t.env.id;
  t.leader_id <- None;
  t.env.rel.unpost_all ();
  relay_clear_leader t;
  let tracker = Quorum.create (Quorum.Majority (all_ids t)) in
  Quorum.ack tracker t.env.id;
  t.votes <- Some tracker;
  reset_election_timer t;
  let send () =
    t.env.broadcast
      (RequestVote
         {
           term = t.term;
           last_index = last_index t;
           last_term = term_at t (last_index t);
         })
  in
  match t.env.Proto.storage with
  | None -> send ()
  | Some st ->
      (* the candidacy's term and self-vote bind across crashes: the
         solicitation leaves only once they are on disk *)
      let term = t.term in
      Storage.persist st (durable_term_ops t) (fun () ->
          if t.state = Candidate && t.term = term then send ())

let on_request t ~client (request : Proto.request) =
  match t.state with
  | Leader when lease_mode t && Command.is_read request.Proto.command ->
      if lease_valid t then serve_local_read t ~client request
      else Queue.push (client, request) t.pending_reads
  | Leader -> (
      let slot = Slot_log.reserve t.log in
      let e =
        { term = t.term; cmd = request.Proto.command; client = Some client }
      in
      Slot_log.set t.log slot e;
      t.env.obs.Proto.on_propose ~slot ~cmd:request.Proto.command;
      (match t.env.Proto.storage with
      | None -> t.match_index.(t.env.id) <- slot + 1
      | Some st ->
          (* the leader's own match counts only once the entry's fsync
             completes — by then leadership may have moved on *)
          Storage.write st (entry_op ~slot e);
          let term = t.term in
          Storage.sync st (fun () ->
              if t.state = Leader && t.term = term then begin
                if slot + 1 > t.match_index.(t.env.id) then
                  t.match_index.(t.env.id) <- slot + 1;
                advance_commit t
              end));
      match t.env.config.Config.batching with
      | None -> broadcast_append t
      | Some b ->
          (* defer replication until the batch fills or the wait timer
             fires; the next AppendEntries then carries the whole tail
             in one message per follower *)
          t.unflushed <- t.unflushed + 1;
          if t.unflushed >= b.Config.max_batch then broadcast_append t
          else if Sim.is_nil t.flush_timer then
            t.flush_timer <-
              t.env.schedule b.Config.max_wait_ms (fun () ->
                  t.flush_timer <- Sim.nil;
                  if t.state = Leader && t.unflushed > 0 then
                    broadcast_append t))
  | Follower | Candidate -> (
      match t.leader_id with
      | Some l when l <> t.env.id -> t.env.forward l ~client request
      | _ -> Queue.push (client, request) t.pending)

let drain_pending_to_leader t =
  match t.leader_id with
  | Some l when l <> t.env.id && t.state <> Leader ->
      while not (Queue.is_empty t.pending) do
        let client, request = Queue.pop t.pending in
        t.env.forward l ~client request
      done
  | _ -> ()

let on_request_vote t ~src ~term ~last_index:cand_last ~last_term =
  if term > t.term then become_follower t ~term;
  let up_to_date =
    last_term > term_at t (last_index t)
    || (last_term = term_at t (last_index t) && cand_last >= last_index t)
  in
  (* Lease safety: having accepted an AppendEntries grants its sender
     a window during which this replica helps no other candidate win —
     the counterpart of the leader's {!recompute_lease} bound. *)
  let lease_blocks =
    lease_mode t
    && src <> t.lease_holder
    && t.env.now () < t.lease_granted_until
  in
  let granted =
    (not lease_blocks)
    && term = t.term
    && up_to_date
    && match t.voted_for with None -> true | Some v -> v = src
  in
  if granted then begin
    t.voted_for <- Some src;
    reset_election_timer t
  end;
  let reply_term = t.term in
  match t.env.Proto.storage with
  | Some st when granted ->
      (* the vote binds across crashes: it leaves only after term and
         voted_for are on disk *)
      Storage.persist st (durable_term_ops t) (fun () ->
          t.env.send src (VoteReply { term = reply_term; granted = true }))
  | _ -> t.env.send src (VoteReply { term = reply_term; granted })

let on_vote_reply t ~src ~term ~granted =
  if term > t.term then become_follower t ~term
  else if t.state = Candidate && term = t.term && granted then
    match t.votes with
    | Some tracker ->
        Quorum.ack tracker src;
        if Quorum.satisfied tracker then become_leader t
    | None -> ()

(* Follower-side append processing shared by the direct path, a
   relay's local accept, and a fanned-out member (where the entries
   come from [leader] but the reply goes back to the forwarding
   relay). Returns the reply's (success, match_index); the caller
   sends it — with [t.term] read after this returns, since a higher
   [term] is adopted here. *)
let append_entries_core t ~leader ~term ~prev_index ~prev_term ~entries
    ~leader_commit =
  if term < t.term then (false, 0)
  else begin
    if term > t.term || t.state <> Follower then become_follower t ~term;
    t.leader_id <- Some leader;
    t.last_heard <- t.env.now ();
    reset_election_timer t;
    (* the accepted append doubles as the lease grant; the reply (of
       either polarity) is the leader's proof of it *)
    if lease_mode t then begin
      t.lease_holder <- leader;
      let until = t.env.now () +. lease_window t in
      if until > t.lease_granted_until then t.lease_granted_until <- until
    end;
    drain_pending_to_leader t;
    let consistent = prev_index < 0 || term_at t prev_index = prev_term in
    if not consistent then
      (false, Stdlib.min prev_index (Slot_log.next_slot t.log))
    else begin
      (* Append, overwriting conflicting suffixes. *)
      List.iteri
        (fun off (e : entry) ->
          let i = prev_index + 1 + off in
          let present =
            if Slot_log.executed t.log i then Slot_log.chosen_tag t.log i = e.term
            else
              match Slot_log.get t.log i with
              | Some existing -> existing.term = e.term
              | None -> false
          in
          if not present then begin
            Slot_log.set t.log i { e with client = None };
            match t.env.Proto.storage with
            | None -> ()
            | Some st -> Storage.write st (entry_op ~slot:i e)
          end)
        entries;
      let match_index = prev_index + 1 + List.length entries in
      if leader_commit > t.commit_index then begin
        t.commit_index <- Stdlib.min leader_commit match_index;
        apply_committed t
      end;
      (true, match_index)
    end
  end

let on_append_entries t ~src ~term ~prev_index ~prev_term ~entries
    ~leader_commit =
  let success, match_index =
    append_entries_core t ~leader:src ~term ~prev_index ~prev_term ~entries
      ~leader_commit
  in
  let reply_term = t.term in
  match t.env.Proto.storage with
  | Some st when success && entries <> [] ->
      (* the accept vote leaves only after its records are durable *)
      Storage.sync st (fun () ->
          t.env.send src
            (AppendReply { term = reply_term; success; match_index }))
  | _ -> t.env.send src (AppendReply { term = reply_term; success; match_index })

(* Snapshot install (Raft §7): replace the state machine with the
   shipped image, drop the log below its frontier, and answer with an
   ordinary AppendReply so the leader's match/next bookkeeping needs
   no special case. A stale image (we already applied past it) only
   refreshes leader identity and the election timer. *)
let on_install_snapshot t ~src ~term ~last_index ~last_term ~image =
  if term < t.term then
    t.env.send src
      (AppendReply
         {
           term = t.term;
           success = false;
           match_index = Slot_log.next_slot t.log;
         })
  else begin
    if term > t.term || t.state <> Follower then become_follower t ~term;
    t.leader_id <- Some src;
    t.last_heard <- t.env.now ();
    reset_election_timer t;
    if lease_mode t then begin
      t.lease_holder <- src;
      let until = t.env.now () +. lease_window t in
      if until > t.lease_granted_until then t.lease_granted_until <- until
    end;
    drain_pending_to_leader t;
    let reply_term = t.term in
    if last_index > Slot_log.exec_frontier t.log then begin
      Executor.install t.exec image;
      Slot_log.truncate t.log ~upto:last_index;
      t.snap_term <- last_term;
      t.snap <- Some (last_index, last_term, image);
      if last_index > t.commit_index then t.commit_index <- last_index;
      let reply () =
        t.env.send src
          (AppendReply
             { term = reply_term; success = true; match_index = last_index })
      in
      match t.env.Proto.storage with
      | None -> reply ()
      | Some st ->
          Storage.write st (Storage.Snapshot (last_index, last_term, image));
          Storage.write st (Storage.Truncate last_index);
          Storage.sync st reply
    end
    else
      t.env.send src
        (AppendReply
           {
             term = reply_term;
             success = true;
             match_index = Stdlib.max last_index (Slot_log.exec_frontier t.log);
           })
  end

(* A relay fanned a round out to us: process it as the leader's own
   append (leader identity, lease grant, election-timer reset), but
   reply to the relay so it can aggregate. *)
let on_fan_append t ~src ~origin ~inner =
  match inner with
  | AppendEntries { term; prev_index; prev_term; entries; leader_commit } ->
      let success, match_index =
        append_entries_core t ~leader:origin ~term ~prev_index ~prev_term
          ~entries ~leader_commit
      in
      t.env.send src (AppendReply { term = t.term; success; match_index })
  | _ -> ()

(* The leader routed a round through us: accept it locally, then fan
   it to our rotation group and start aggregating. A round we cannot
   accept (stale term or log inconsistency) is nacked straight back to
   the leader, which handles it exactly like a direct nack. *)
let on_relay_append t ~src ~gen ~inner =
  match inner with
  | AppendEntries { term; prev_index; prev_term; entries; leader_commit } -> (
      let expected = prev_index + 1 + List.length entries in
      match Hashtbl.find_opt t.relay_aggs expected with
      | Some a when a.Relay.a_tag = term && a.Relay.a_leader = src ->
          (* the leader's retransmission: resend the full ack, or
             re-fan to the members still missing from the bitmap *)
          if a.Relay.a_complete then relay_send_ack t expected a
          else begin
            let g = a.Relay.a_group in
            let size_bytes = append_size t entries in
            for i = 1 to Array.length g - 1 do
              if a.Relay.a_bits land (1 lsl i) = 0 then
                t.env.send_sized g.(i) ~size_bytes
                  (FanAppend { origin = src; inner })
            done
          end
      | stale ->
          let success, match_index =
            append_entries_core t ~leader:src ~term ~prev_index ~prev_term
              ~entries ~leader_commit
          in
          if not (success && match_index = expected) then
            t.env.send src
              (AppendReply { term = t.term; success; match_index })
          else begin
            (match stale with
            | Some old -> relay_drop t expected old
            | None -> ());
            let plan = relay_plan t ~leader:src ~gen in
            let gi = plan.Relay.group_of.(t.env.id) in
            if gi < 0 || plan.Relay.groups.(gi).(0) <> t.env.id then
              (* plans disagree (a gen raced a bump): answer direct *)
              t.env.send src
                (AppendReply { term = t.term; success = true; match_index })
            else begin
              let group = plan.Relay.groups.(gi) in
              let a =
                Relay.alloc t.relay_pool ~leader:src ~gen ~group ~tag:term
                  ~aux:expected ~batch:false
              in
              a.Relay.a_t0 <- t.env.now ();
              Relay.set_bit a 0;
              Hashtbl.replace t.relay_aggs expected a;
              let size_bytes = append_size t entries in
              List.iter
                (fun m ->
                  t.env.send_sized m ~size_bytes
                    (FanAppend { origin = src; inner }))
                (relay_fan_list t ~leader:src ~gen plan gi);
              if Relay.complete a then relay_finalize t expected a
              else
                a.Relay.a_flush <-
                  t.env.schedule (relay_flush_ms t) (fun () ->
                      relay_flush t expected);
              relay_prune t
            end
          end)
  | _ -> ()

(* One aggregated bitmap covers a whole rotation group: credit every
   bit's member with the round's match index, settle the relay's post
   once its group is complete, and advance the commit frontier. *)
let on_relay_append_ack t ~src ~term ~gen ~expected ~bits =
  if term > t.term then become_follower t ~term
  else if t.state = Leader && term = t.term && relay_on t then begin
    let plan = relay_plan t ~leader:t.env.id ~gen in
    let gi = plan.Relay.group_of.(src) in
    if gi >= 0 && plan.Relay.groups.(gi).(0) = src then begin
      let group = plan.Relay.groups.(gi) in
      let mask = Relay.full_mask (Array.length group) in
      if
        t.relay_akey <> 0 && expected = t.relay_expected
        && bits land mask = mask
      then t.env.rel.settle ~dst:src ~key:t.relay_akey;
      let lease = lease_mode t in
      for i = 0 to Array.length group - 1 do
        if bits land (1 lsl i) <> 0 then begin
          let m = group.(i) in
          (* the member accepted the append — its relayed reply proves
             the probe contact just like a direct reply would *)
          if lease && t.probe_sent_at.(m) > neg_infinity then begin
            if t.probe_sent_at.(m) > t.acked_at.(m) then
              t.acked_at.(m) <- t.probe_sent_at.(m);
            t.probe_sent_at.(m) <- neg_infinity
          end;
          t.match_index.(m) <- Stdlib.max t.match_index.(m) expected;
          t.next_index.(m) <- Stdlib.max t.next_index.(m) expected
        end
      done;
      if lease then recompute_lease t;
      advance_commit t;
      if t.commit_index >= t.relay_expected && not (Sim.is_nil t.relay_fb)
      then begin
        t.env.Proto.cancel t.relay_fb;
        t.relay_fb <- Sim.nil
      end
    end
  end

let on_append_reply t ~src ~term ~success ~match_index =
  if relay_absorb_reply t ~src ~term ~success ~match_index then ()
  else if term > t.term then become_follower t ~term
  else if t.state = Leader && term = t.term then begin
    (* Either polarity of a current-term reply proves the follower
       accepted an append of ours sent no earlier than the recorded
       probe time — it reset its election timer and granted then — so
       the probe round-trip extends the lease. *)
    if lease_mode t && t.probe_sent_at.(src) > neg_infinity then begin
      if t.probe_sent_at.(src) > t.acked_at.(src) then
        t.acked_at.(src) <- t.probe_sent_at.(src);
      t.probe_sent_at.(src) <- neg_infinity;
      recompute_lease t
    end;
    if success then begin
      (* the open post's ack: a success at or past the match it was
         shipped to establish (an older reply leaves it posted) *)
      if t.append_key.(src) <> 0 && match_index >= t.inflight_match.(src)
      then begin
        t.env.rel.settle ~dst:src ~key:t.append_key.(src);
        t.append_key.(src) <- 0;
        t.inflight_match.(src) <- 0
      end;
      t.match_index.(src) <- Stdlib.max t.match_index.(src) match_index;
      t.next_index.(src) <- Stdlib.max t.next_index.(src) match_index;
      advance_commit t
    end
    else begin
      (* Fast backoff to the follower's hinted match point. *)
      t.next_index.(src) <- Stdlib.max 0 (Stdlib.min match_index (t.next_index.(src) - 1));
      send_append t src
    end
  end

let on_message t ~src = function
  | RequestVote { term; last_index; last_term } ->
      on_request_vote t ~src ~term ~last_index ~last_term
  | VoteReply { term; granted } -> on_vote_reply t ~src ~term ~granted
  | AppendEntries { term; prev_index; prev_term; entries; leader_commit } ->
      on_append_entries t ~src ~term ~prev_index ~prev_term ~entries
        ~leader_commit
  | AppendReply { term; success; match_index } ->
      on_append_reply t ~src ~term ~success ~match_index
  | RelayAppend { gen; inner } -> on_relay_append t ~src ~gen ~inner
  | FanAppend { origin; inner } -> on_fan_append t ~src ~origin ~inner
  | RelayAppendAck { term; gen; expected; bits } ->
      on_relay_append_ack t ~src ~term ~gen ~expected ~bits
  | InstallSnapshot { term; last_index; last_term; image } ->
      on_install_snapshot t ~src ~term ~last_index ~last_term ~image

let rec heartbeat_loop t =
  let period = t.env.config.Config.failover_timeout_ms /. 4.0 in
  ignore
  @@ t.env.schedule period (fun () ->
         (if t.state = Leader then
            if t.unflushed > 0 then broadcast_append t
            else broadcast_keepalive t);
         heartbeat_loop t)

let rec election_loop t =
  let period = t.env.config.Config.failover_timeout_ms /. 4.0 in
  ignore
  @@ t.env.schedule period (fun () ->
         (if t.state <> Leader && t.env.now () > t.election_deadline then
            start_election t);
         election_loop t)

let on_start t =
  t.last_heard <- t.env.now ();
  (* Deterministic fast start: replica 0 stands for election right
     away so the common case elects it immediately, as with etcd's
     initial election. *)
  let base = t.env.config.Config.failover_timeout_ms in
  if t.env.id = 0 then
    ignore
      (t.env.schedule 1.0 (fun () ->
           if t.state = Follower && t.leader_id = None then start_election t))
  else t.election_deadline <- t.env.now () +. base +. Rng.float t.env.rng base;
  heartbeat_loop t;
  election_loop t

(* Boot a FRESH replica instance from durable state after a crash (the
   cluster engine swaps instances at the recovery edge). Volatile
   state — role, leader identity, commit index beyond the snapshot,
   match/next bookkeeping, leases — is gone by construction; the
   durable term, vote, snapshot and log survive. The replica restarts
   as a follower with a full election timeout: even a pre-crash leader
   must win a fresh election (or hear from the incumbent) before it
   touches the log again. *)
let on_recover t =
  (match t.env.Proto.storage with
  | None -> ()
  | Some st ->
      t.term <- Storage.reg st 0;
      let v = Storage.reg st 1 in
      t.voted_for <- (if v > 0 then Some (v - 1) else None);
      (match Storage.snapshot st with
      | Some (last, last_term, image) ->
          Executor.install t.exec image;
          Slot_log.truncate t.log ~upto:last;
          t.snap_term <- last_term;
          t.snap <- Some (last, last_term, image);
          t.commit_index <- last
      | None -> ());
      Storage.iter_entries st ~f:(fun slot (de : Storage.entry) ->
          if slot >= Slot_log.base t.log then
            Slot_log.set t.log slot
              { term = de.Storage.a; cmd = de.Storage.cmd; client = None }));
  t.last_heard <- t.env.now ();
  reset_election_timer t;
  heartbeat_loop t;
  election_loop t
