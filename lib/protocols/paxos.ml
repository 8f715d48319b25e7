type message =
  | P1a of { ballot : Ballot.t; frontier : int }
  | P1b of {
      ballot : Ballot.t;
      ok : bool;
      accepted : (int * Ballot.t * Command.t) list;
    }
  | P2a of { ballot : Ballot.t; slot : int; cmd : Command.t; commit_up_to : int }
  | P2b of { ballot : Ballot.t; slot : int; ok : bool }
  | P2aBatch of {
      ballot : Ballot.t;
      first_slot : int;
      cmds : Command.t array;
      commit_up_to : int;
    }
      (** one phase-2 round for [Array.length cmds] contiguous slots
          starting at [first_slot]; wire size is the sum of the
          commands' sizes, so the receiver pays one [t_in] for the
          whole batch *)
  | P2bBatch of { ballot : Ballot.t; first_slot : int; count : int; ok : bool }
  | Commit of { slot : int; cmd : Command.t }
  | Heartbeat of { ballot : Ballot.t; commit_up_to : int; epoch : int }
      (** [epoch] numbers lease-renewal rounds (0 and unacked when the
          lease read path is off) *)
  | HeartbeatAck of { ballot : Ballot.t; epoch : int }
      (** lease grant: the follower promises not to promise a foreign
          phase-1 for the serve window; only sent in lease mode *)
  | CommitAck of { slot : int }
      (** quorum-read mode: a follower applied this slot — the leader
          defers the client's write ack until a majority did *)
  | ReadQ of { rid : int; key : Command.key }
  | ReadQR of { rid : int; tag : Read_quorum.tag; value : Command.value option }
  | ReadWB of {
      rid : int;
      key : Command.key;
      tag : Read_quorum.tag;
      value : Command.value option;
    }
  | ReadWBAck of { rid : int }
  | RelayRound of { gen : int; inner : message }
      (** leader → relay (Config.relay_groups > 0): apply [inner] (a
          P2a/P2aBatch) locally, fan it out to the relay's rotation
          group, and aggregate the group's acks into one [RelayAck];
          [gen] names the rotation plan every replica derives
          identically (DESIGN.md §12) *)
  | RelayAck of {
      ballot : Ballot.t;
      gen : int;
      first_slot : int;
      count : int;
      batch : bool;
      bits : int;
          (** positional ack bitmap over the plan's group array — bit i
              set = group member i accepted, so quorum accounting stays
              exact: each bit maps back to a replica id *)
    }

let name = "paxos"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | P1a _ -> "P1a"
  | P1b _ -> "P1b"
  | P2a _ -> "P2a"
  | P2b _ -> "P2b"
  | P2aBatch _ -> "P2aBatch"
  | P2bBatch _ -> "P2bBatch"
  | Commit _ -> "Commit"
  | Heartbeat _ -> "Heartbeat"
  | HeartbeatAck _ -> "HeartbeatAck"
  | CommitAck _ -> "CommitAck"
  | ReadQ _ -> "ReadQ"
  | ReadQR _ -> "ReadQR"
  | ReadWB _ -> "ReadWB"
  | ReadWBAck _ -> "ReadWBAck"
  | RelayRound _ -> "RelayRound"
  | RelayAck _ -> "RelayAck"

type entry = {
  mutable ballot : Ballot.t;
  mutable cmd : Command.t;
  mutable client : Address.t option;
  mutable quorum : Quorum.t option;
  mutable committed : bool;
  mutable rkey : int;
      (** reliable-delivery key of the in-flight P2a for this slot
          (0 when none) — settled per-acceptor as P2bs arrive *)
  mutable fb : Sim.handle;
      (** relay-mode fallback timer: if the slot is still uncommitted
          when it fires, the leader re-sends direct and rotates the
          relay plan ([Sim.nil] outside relay rounds) *)
}

type phase1_state = {
  tracker : Quorum.t;
  mutable recovered : (int * Ballot.t * Command.t) list;
  rkey : int;  (** reliable-delivery key of the P1a broadcast *)
}

(* One in-flight batched phase-2 round: a single quorum covers the
   slot range [first_slot, first_slot + count). *)
type batch_state = {
  bballot : Ballot.t;
  count : int;
  tracker : Quorum.t;
  rkey : int;
  mutable bfb : Sim.handle;  (** relay-mode fallback timer (see entry.fb) *)
}

(* One quorum read in flight at its coordinating replica: an ABD round
   over the shadow registers. *)
type qread = {
  rclient : Address.t;
  rcmd : Command.t;
  round : Command.value option Read_quorum.t;
}

type replica = {
  env : message Proto.env;
  q2_template : Quorum.t Lazy.t;
      (* unacked phase-2 tracker every slot, batch and lease epoch
         copies with [Quorum.fresh]; built on first use, so creating
         a replica stays as cheap as before *)
  mutable ballot : Ballot.t;
  mutable active : bool; (* self is the established leader *)
  log : (entry, Ballot.t) Slot_log.t;
      (* executed slots keep only their command and ballot *)
  mutable late_posts : (int * int) list;
      (* leader: (slot, rkey) of executed slots whose P2a post was
         still open when they executed — committed by a Commit rather
         than by their own quorum — so late P2bs still settle it *)
  exec : Executor.t;
  mutable p1 : phase1_state option;
  pending : (Address.t * Proto.request) Queue.t;
  mutable last_heard : float;
  (* leader command batching (Config.batching) *)
  batch_buf : (Address.t * Proto.request) Queue.t;
  mutable flush_timer : Sim.handle; (* Sim.nil when no flush is pending *)
  batches : (int, batch_state) Hashtbl.t; (* keyed by first_slot *)
  (* ---- read path: leader leases (Config.read_path = Lease) ---- *)
  mutable lease_epoch : int; (* leader: renewal round counter *)
  mutable lease_sent_at : float; (* leader: local clock at renewal send *)
  mutable lease_acks : Quorum.t option; (* leader: grants for lease_epoch *)
  mutable lease_until : float; (* leader: serve until (local clock) *)
  mutable lease_holder : int; (* follower: who holds our grant *)
  mutable lease_granted_until : float;
      (* follower: refuse foreign phase-1 until (local clock) *)
  mutable read_barrier : int;
      (* leader: serve reads only once exec_frontier reached this —
         the first slot of our own term, so every predecessor's
         acknowledged write is applied locally *)
  pending_reads : (Address.t * Proto.request) Queue.t;
  mutable local_reads : int; (* lease reads served from local state *)
  (* ---- read path: quorum reads (Config.read_path = Quorum) ---- *)
  shadow : (Command.key, Command.value option Read_quorum.register) Hashtbl.t;
      (* per-key (tag = (slot, 0), value) of the freshest locally
         applied write; fed only in quorum mode, never touches the KV *)
  qreads : (int, qread) Hashtbl.t; (* in-flight ABD rounds by rid *)
  mutable next_rid : int;
  held : (int, Address.t * Command.t * Command.value option) Hashtbl.t;
      (* leader: write replies deferred until a majority applied *)
  commit_acks : (int, Quorum.t) Hashtbl.t; (* slot -> applied-at votes *)
  mutable quorum_reads : int; (* ABD reads completed here *)
  (* ---- relay trees (Config.relay_groups > 0; DESIGN.md §12) ---- *)
  relay_plans : Relay.plans; (* memoized rotation plans by (leader, gen) *)
  relay_aggs : (int, Relay.agg) Hashtbl.t;
      (* relay side: in-flight aggregation records keyed by first_slot *)
  relay_pool : Relay.pool;
  mutable relay_seq : int; (* leader: relay rounds posted (drives rotation) *)
  mutable relay_bump : int; (* leader: forced rotations after fallbacks *)
  mutable relay_bypass_until : float;
      (* leader: send direct until this instant after a relay stalled *)
  mutable relay_dsts : int list; (* leader: cached relay ids for dsts_gen *)
  mutable relay_dsts_gen : int;
  mutable relay_fan : int list; (* relay: cached own group minus self *)
  mutable relay_fan_gen : int;
}

let all_ids (t : replica) = List.init t.env.n (fun i -> i)

let q2_size (t : replica) = Config.phase2_quorum_size t.env.config

let q1_size (t : replica) =
  match t.env.config.Config.q2_size with
  | Some q2 -> t.env.n - q2 + 1
  | None -> Config.majority t.env.config

(* Followers the leader contacts in phase-2: everyone, or with the
   thrifty optimization only the Q2-1 closest peers. *)
let phase2_peers (t : replica) =
  let others = List.filter (fun i -> i <> t.env.id) (all_ids t) in
  if not t.env.config.Config.thrifty then others
  else begin
    let my_region = Topology.region_of_replica t.env.topology t.env.id in
    let dist i =
      Topology.rtt_mean t.env.topology my_region
        (Topology.region_of_replica t.env.topology i)
    in
    let sorted =
      List.sort (fun a b -> Float.compare (dist a) (dist b)) others
    in
    List.filteri (fun rank _ -> rank < q2_size t - 1) sorted
  end

let entry_cmd (e : entry) = e.cmd
let entry_ballot (e : entry) = e.ballot
let keep = Some (entry_cmd, entry_ballot)

let create env =
  {
    env;
    q2_template =
      lazy
        (Quorum.create
           (Quorum.Count
              {
                members = List.init env.Proto.n Fun.id;
                threshold = Config.phase2_quorum_size env.Proto.config;
              }));
    ballot = Ballot.zero;
    active = false;
    log = Slot_log.create ?keep ();
    late_posts = [];
    exec = Executor.create ();
    p1 = None;
    pending = Queue.create ();
    last_heard = 0.0;
    batch_buf = Queue.create ();
    flush_timer = Sim.nil;
    batches = Hashtbl.create 16;
    lease_epoch = 0;
    lease_sent_at = neg_infinity;
    lease_acks = None;
    lease_until = neg_infinity;
    lease_holder = -1;
    lease_granted_until = neg_infinity;
    read_barrier = 0;
    pending_reads = Queue.create ();
    local_reads = 0;
    shadow = Hashtbl.create 64;
    qreads = Hashtbl.create 16;
    next_rid = 0;
    held = Hashtbl.create 32;
    commit_acks = Hashtbl.create 32;
    quorum_reads = 0;
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
  }

let is_leader t = t.active
let current_ballot t = t.ballot
let commit_frontier t = Slot_log.exec_frontier t.log
let executor t = t.exec
let local_reads_served t = t.local_reads
let quorum_reads_served t = t.quorum_reads

let lease_mode t =
  match t.env.config.Config.read_path with
  | Some (Config.Lease _) -> true
  | _ -> false

let quorum_mode t =
  match t.env.config.Config.read_path with
  | Some Config.Quorum -> true
  | _ -> false

let lease_margin t =
  match t.env.config.Config.read_path with
  | Some (Config.Lease { margin_ms }) -> margin_ms
  | _ -> 0.0

(* A follower that granted a lease holds its own phase-1 for at least
   the minimum staggered failover timeout (base × 1.5, replica id 0),
   measured on its local clock from heartbeat receipt. The leader's
   serve window runs from the earlier *send* instant on its own clock,
   so with clocks within [margin/2] the serve window ends strictly
   inside every grantor's hold window (DESIGN.md §11). *)
let serve_window t = t.env.config.Config.failover_timeout_ms *. 1.5

let lease_valid t =
  t.active
  && Slot_log.exec_frontier t.log >= t.read_barrier
  && t.env.now () < t.lease_until -. lease_margin t

let log_entry t slot =
  if Slot_log.executed t.log slot then
    Some (Slot_log.chosen_tag t.log slot, Slot_log.chosen_cmd t.log slot, true)
  else
    Option.map
      (fun (e : entry) -> (e.ballot, e.cmd, e.committed))
      (Slot_log.get t.log slot)

(* A late P2b (or full RelayAck) for an executed slot: its post was
   closed at commit unless [late_posts] still names it. *)
let settle_late t ~src slot =
  match t.late_posts with
  | [] -> ()
  | posts -> (
      match List.assoc_opt slot posts with
      | Some rkey -> t.env.rel.settle ~dst:src ~key:rkey
      | None -> ())

let leader_of_key t (_ : Command.key) =
  if t.ballot.Ballot.round > 0 then Some t.ballot.Ballot.owner else None

let serve_local_read t ~client (request : Proto.request) =
  let cmd = request.Proto.command in
  let read = Executor.read t.exec cmd in
  t.local_reads <- t.local_reads + 1;
  t.env.obs.Proto.on_read ();
  t.env.reply client
    { Proto.command = cmd; read; replier = t.env.id; leader_hint = Some t.env.id }

let maybe_serve_reads t =
  if not (Queue.is_empty t.pending_reads) then
    while lease_valid t && not (Queue.is_empty t.pending_reads) do
      let client, request = Queue.pop t.pending_reads in
      serve_local_read t ~client request
    done

let commit_tracker t slot =
  match Hashtbl.find_opt t.commit_acks slot with
  | Some q -> q
  | None ->
      let q = Quorum.create (Quorum.Majority (all_ids t)) in
      Hashtbl.add t.commit_acks slot q;
      q

(* Release a deferred write ack once a majority applied the slot. The
   tracker is a plain majority — NOT q2: the quorum a read queries is
   a majority, and only majorities are guaranteed to intersect it. *)
let maybe_release_held t slot =
  match Hashtbl.find_opt t.commit_acks slot with
  | Some q when Quorum.satisfied q -> (
      Hashtbl.remove t.commit_acks slot;
      match Hashtbl.find_opt t.held slot with
      | Some (client, cmd, read) ->
          Hashtbl.remove t.held slot;
          t.env.reply client
            {
              Proto.command = cmd;
              read;
              replier = t.env.id;
              leader_hint = (if t.active then Some t.env.id else None);
            }
      | None -> ())
  | _ -> ()

(* Execute committed slots in order; the proposer replies to its
   recorded clients as their commands execute. In quorum-read mode the
   reply is deferred (held until a majority acks application) and
   every apply feeds the per-key shadow register / CommitAck stream. *)
let advance t =
  let qmode = quorum_mode t in
  Slot_log.advance_frontier t.log
    ~executable:(fun e -> e.committed)
    ~f:(fun slot e ->
      let read = Executor.execute t.exec e.cmd in
      if e.rkey <> 0 then begin
        if t.active then t.late_posts <- (slot, e.rkey) :: t.late_posts;
        e.rkey <- 0
      end;
      if qmode then begin
        (if Command.is_write e.cmd then
           let value =
             match e.cmd.Command.op with
             | Command.Put (_, v) -> Some v
             | _ -> None
           in
           Read_quorum.adopt
             (Read_quorum.lookup t.shadow ~empty:None (Command.key e.cmd))
             ~tag:(slot, 0) ~value);
        if t.active then begin
          (match e.client with
          | Some client ->
              e.client <- None;
              Hashtbl.replace t.held slot (client, e.cmd, read)
          | None -> ());
          Quorum.ack (commit_tracker t slot) t.env.id;
          maybe_release_held t slot
        end
        else begin
          (* A deposed proposer must not ack its recorded client here:
             the write may not be majority-applied yet, and a quorum
             read could miss it. The client's retry reaches the new
             leader, which re-proposes and defers the ack properly. *)
          e.client <- None;
          if t.ballot.Ballot.round > 0 && t.ballot.Ballot.owner <> t.env.id then
            t.env.send t.ballot.Ballot.owner (CommitAck { slot })
        end
      end
      else
        match e.client with
        | Some client ->
            e.client <- None;
            t.env.reply client
              {
                Proto.command = e.cmd;
                read;
                replier = t.env.id;
                leader_hint = (if t.active then Some t.env.id else None);
              }
        | None -> ());
  if lease_mode t then maybe_serve_reads t

let commit_up_to t bound =
  let changed = ref false in
  (* slots below the frontier are committed by construction (the
     frontier only advances over committed entries) — skip them. *)
  for slot = Slot_log.exec_frontier t.log to bound - 1 do
    match Slot_log.get t.log slot with
    | Some e when not e.committed ->
        e.committed <- true;
        e.quorum <- None;
        changed := true
    | _ -> ()
  done;
  if !changed then advance t

(* ---- relay trees (Config.relay_groups > 0; DESIGN.md §12) ----
   The leader wraps each phase-2 round in [RelayRound] and multicasts
   it to one relay per rotation group; relays accept locally, fan the
   plain inner round out to their group, and aggregate the group's
   P2bs into one [RelayAck] bitmap. Every function below is guarded so
   a [relay_groups = 0] run never reaches any of it — no messages, no
   timers, no RNG draws — keeping the direct path byte-identical. *)

let relay_on t = t.env.config.Config.relay_groups > 0

(* Route this round through relays? Off outside relay mode, and off
   during the bypass window a stalled relay opens. *)
let relay_route t = relay_on t && t.env.now () >= t.relay_bypass_until
let relay_gen t = Relay.gen_of_seq ~seq:t.relay_seq ~bump:t.relay_bump

let relay_plan t ~leader ~gen =
  Relay.find t.relay_plans ~n:t.env.n ~leader
    ~r:t.env.config.Config.relay_groups ~gen

(* The relay ids for [gen], cached so steady state reuses one list. *)
let relay_targets t ~gen (plan : Relay.plan) =
  if t.relay_dsts_gen <> gen then begin
    t.relay_dsts <-
      Array.to_list (Array.map (fun g -> g.(0)) plan.Relay.groups);
    t.relay_dsts_gen <- gen
  end;
  t.relay_dsts

(* Group members this relay fans a round out to (own group minus
   self), cached per (leader, gen) like the plans themselves. *)
let relay_fan_list t ~leader ~gen (plan : Relay.plan) gi =
  let key = (gen lsl 10) lor leader in
  if t.relay_fan_gen <> key then begin
    let g = plan.Relay.groups.(gi) in
    let rec tail i acc = if i < 1 then acc else tail (i - 1) (g.(i) :: acc) in
    t.relay_fan <- tail (Array.length g - 1) [];
    t.relay_fan_gen <- key
  end;
  t.relay_fan

(* How long the leader gives a relay round before falling back to
   direct fan-out: well under the failover timeout, so a dead relay
   costs one blip rather than a leadership change. *)
let relay_fallback_ms t = t.env.config.Config.failover_timeout_ms /. 8.0

(* Partial-flush cadence at a relay: match the retransmission base so
   a flush lands between the leader's retries, else the fallback
   division of the failover timeout. *)
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

let relay_fallback_slot t slot =
  match Slot_log.get t.log slot with
  | Some e
    when t.active && (not e.committed) && Ballot.equal e.ballot t.ballot ->
      e.fb <- Sim.nil;
      relay_stall t;
      if e.rkey <> 0 then t.env.rel.settle_all ~key:e.rkey;
      e.rkey <-
        t.env.rel.post_all ~ack:Reliable.Piggyback
          (P2a
             {
               ballot = t.ballot;
               slot;
               cmd = e.cmd;
               commit_up_to = Slot_log.exec_frontier t.log;
             })
  | _ -> ()

let relay_fallback_batch t first_slot =
  match Hashtbl.find_opt t.batches first_slot with
  | Some bs when t.active && Ballot.equal bs.bballot t.ballot ->
      bs.bfb <- Sim.nil;
      relay_stall t;
      t.env.rel.settle_all ~key:bs.rkey;
      let cmds =
        Array.init bs.count (fun i ->
            let slot = first_slot + i in
            if Slot_log.executed t.log slot then Slot_log.chosen_cmd t.log slot
            else
              match Slot_log.get t.log slot with
              | Some e -> e.cmd
              | None -> Command.noop)
      in
      let size_bytes = bs.count * t.env.config.Config.msg_size_bytes in
      let rkey =
        t.env.rel.post_all ~size_bytes ~ack:Reliable.Piggyback
          (P2aBatch
             {
               ballot = t.ballot;
               first_slot;
               cmds;
               commit_up_to = Slot_log.exec_frontier t.log;
             })
      in
      Hashtbl.replace t.batches first_slot { bs with rkey }
  | _ -> ()

let relay_send_ack t first_slot (a : Relay.agg) =
  t.env.send a.Relay.a_leader
    (RelayAck
       {
         ballot = { Ballot.round = a.Relay.a_tag; owner = a.Relay.a_leader };
         gen = a.Relay.a_gen;
         first_slot;
         count = a.Relay.a_aux;
         batch = a.Relay.a_batch;
         bits = a.Relay.a_bits;
       })

let relay_drop t first_slot (a : Relay.agg) =
  if not (Sim.is_nil a.Relay.a_flush) then t.env.Proto.cancel a.Relay.a_flush;
  a.Relay.a_flush <- Sim.nil;
  Hashtbl.remove t.relay_aggs first_slot;
  Relay.release t.relay_pool a

(* Drop every relay-side aggregation record (our ballot moved on, or
   we are becoming a candidate/leader ourselves). *)
let relay_reset t =
  if Hashtbl.length t.relay_aggs > 0 then
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.relay_aggs []
    |> List.iter (fun (k, a) -> relay_drop t k a)

let relay_finalize t first_slot (a : Relay.agg) =
  a.Relay.a_complete <- true;
  if not (Sim.is_nil a.Relay.a_flush) then begin
    t.env.Proto.cancel a.Relay.a_flush;
    a.Relay.a_flush <- Sim.nil
  end;
  if t.env.obs.Proto.active then
    t.env.obs.Proto.on_relay ~start_ms:a.Relay.a_t0 ~end_ms:(t.env.now ());
  relay_send_ack t first_slot a

(* Partial-ack flush: a group member is slow or dead — report the bits
   we do have so the leader's quorum can complete through the other
   groups, then keep waiting. Records superseded by a newer ballot are
   dropped instead of re-armed. *)
let rec relay_flush t first_slot =
  match Hashtbl.find_opt t.relay_aggs first_slot with
  | Some a when not a.Relay.a_complete ->
      a.Relay.a_flush <- Sim.nil;
      if
        a.Relay.a_tag = t.ballot.Ballot.round
        && a.Relay.a_leader = t.ballot.Ballot.owner
      then begin
        relay_send_ack t first_slot a;
        a.Relay.a_flush <-
          t.env.schedule (relay_flush_ms t) (fun () ->
              relay_flush t first_slot)
      end
      else relay_drop t first_slot a
  | _ -> ()

(* Completed records linger so a duplicate [RelayRound] (the leader's
   retransmission racing our ack) gets a full-ack resend; prune them
   once their slots fall below the commit frontier, amortized behind a
   size threshold. *)
let relay_prune t =
  if Hashtbl.length t.relay_aggs > 128 then begin
    let frontier = Slot_log.exec_frontier t.log in
    Hashtbl.fold
      (fun slot (a : Relay.agg) acc ->
        if slot + a.Relay.a_aux <= frontier then (slot, a) :: acc else acc)
      t.relay_aggs []
    |> List.iter (fun (slot, a) -> relay_drop t slot a)
  end

(* A member's ack arriving at its relay: fold it into the aggregation
   bitmap instead of the (absent) leader-side tracker. Returns [false]
   when the ack is not ours to absorb — the caller runs the normal
   path. *)
let relay_absorb_p2b t ~src ~ballot ~first_slot ~count ~batch ~ok =
  if t.active || not (relay_on t) then false
  else
    match Hashtbl.find_opt t.relay_aggs first_slot with
    | Some a when a.Relay.a_batch = batch && a.Relay.a_aux = count ->
        if
          ok
          && a.Relay.a_tag = ballot.Ballot.round
          && a.Relay.a_leader = ballot.Ballot.owner
        then begin
          let i = Relay.position a src in
          if i >= 0 then begin
            Relay.set_bit a i;
            if (not a.Relay.a_complete) && Relay.complete a then
              relay_finalize t first_slot a
          end;
          true
        end
        else if not ok then begin
          (* the member knows a higher ballot: relay the nok to the
             round's leader (it must step down), then take the normal
             nok path ourselves *)
          t.env.send a.Relay.a_leader
            (if batch then P2bBatch { ballot; first_slot; count; ok = false }
             else P2b { ballot; slot = first_slot; ok = false });
          relay_drop t first_slot a;
          false
        end
        else false
    | _ -> false

(* Commit a single-slot round once its tracker is satisfied; shared by
   the direct P2b path and the aggregated RelayAck path. *)
let maybe_commit_slot t slot (e : entry) tracker =
  if Quorum.satisfied tracker then begin
    e.committed <- true;
    e.quorum <- None (* a committed slot takes no more votes *);
    t.env.obs.Proto.on_quorum ~slot;
    t.env.rel.settle_all ~key:e.rkey;
    e.rkey <- 0;
    if not (Sim.is_nil e.fb) then begin
      t.env.Proto.cancel e.fb;
      e.fb <- Sim.nil
    end;
    advance t;
    if (not t.env.config.Config.piggyback_commit) || quorum_mode t then
      t.env.broadcast (Commit { slot; cmd = e.cmd })
  end

(* ---- stable storage (Config.storage; DESIGN.md §14) ----------------
   Registers 0/1 hold the durable promised ballot (round, owner); the
   durable log holds every accepted (slot, ballot, command). Acks that
   Paxos safety rests on — the P1b promise, the P2b/P2bBatch accept,
   and the leader's own phase-2 vote — are deferred until the fsync
   covering their records completes. With [Config.storage] unset every
   branch below falls through to the original code path, so
   memory-only runs stay byte-identical. *)

let durable_ballot_ops (b : Ballot.t) =
  [ Storage.Reg (0, b.Ballot.round); Storage.Reg (1, b.Ballot.owner) ]

let entry_op ~slot ~(ballot : Ballot.t) ~cmd =
  Storage.Entry
    (slot, { Storage.a = ballot.Ballot.round; b = ballot.Ballot.owner; cmd })

let propose t ~client (request : Proto.request) =
  let slot = Slot_log.reserve t.log in
  let tracker = Quorum.fresh (Lazy.force t.q2_template) in
  (match t.env.Proto.storage with
  | None -> Quorum.ack tracker t.env.id
  | Some _ -> () (* self-vote deferred until the entry is durable *));
  let entry =
    {
      ballot = t.ballot;
      cmd = request.Proto.command;
      client = Some client;
      quorum = Some tracker;
      committed = false;
      rkey = 0;
      fb = Sim.nil;
    }
  in
  Slot_log.set t.log slot entry;
  t.env.obs.Proto.on_propose ~slot ~cmd:request.Proto.command;
  let msg =
    P2a
      {
        ballot = t.ballot;
        slot;
        cmd = request.Proto.command;
        commit_up_to = Slot_log.exec_frontier t.log;
      }
  in
  if relay_route t then begin
    let gen = relay_gen t in
    t.relay_seq <- t.relay_seq + 1;
    let plan = relay_plan t ~leader:t.env.id ~gen in
    entry.rkey <-
      t.env.rel.post_multi ~ack:Reliable.Piggyback
        (relay_targets t ~gen plan)
        (RelayRound { gen; inner = msg });
    entry.fb <-
      t.env.schedule (relay_fallback_ms t) (fun () ->
          relay_fallback_slot t slot)
  end
  else
    entry.rkey <-
      (if t.env.config.Config.thrifty then
         t.env.rel.post_multi ~ack:Reliable.Piggyback (phase2_peers t) msg
       else t.env.rel.post_all ~ack:Reliable.Piggyback msg);
  match t.env.Proto.storage with
  | None -> ()
  | Some st ->
      (* the leader's own vote counts only once its accept record is
         on disk — by then leadership or the slot may have moved on *)
      Storage.write st (entry_op ~slot ~ballot:entry.ballot ~cmd:entry.cmd);
      let b = t.ballot in
      Storage.sync st (fun () ->
          if t.active && Ballot.equal t.ballot b && not entry.committed then begin
            Quorum.ack tracker t.env.id;
            maybe_commit_slot t slot entry tracker
          end)

let commit_batch t first_slot (bs : batch_state) =
  Hashtbl.remove t.batches first_slot;
  t.env.rel.settle_all ~key:bs.rkey;
  if not (Sim.is_nil bs.bfb) then begin
    t.env.Proto.cancel bs.bfb;
    bs.bfb <- Sim.nil
  end;
  for slot = first_slot to first_slot + bs.count - 1 do
    match Slot_log.get t.log slot with
    | Some e when not e.committed ->
        e.committed <- true;
        t.env.obs.Proto.on_quorum ~slot
    | _ -> ()
  done;
  advance t;
  (* quorum-read mode forces the explicit commit broadcast even under
     piggybacking: followers must learn commits promptly, because the
     client's ack is waiting on their CommitAcks *)
  if (not t.env.config.Config.piggyback_commit) || quorum_mode t then
    for slot = first_slot to first_slot + bs.count - 1 do
      if Slot_log.executed t.log slot then
        t.env.broadcast (Commit { slot; cmd = Slot_log.chosen_cmd t.log slot })
      else
        match Slot_log.get t.log slot with
        | Some e -> t.env.broadcast (Commit { slot; cmd = e.cmd })
        | None -> ()
    done

(* One phase-2 round for the whole batch: contiguous slots, a single
   shared quorum tracker, one serialized message per peer whose wire
   size is the sum of the commands' sizes (one [occupy_outgoing], one
   [t_in] at each acceptor). Per-command client replies still happen
   individually as the slots execute in [advance]. *)
let propose_batch t items =
  let k = List.length items in
  let first_slot = Slot_log.next_slot t.log in
  let cmds = Array.make k Command.noop in
  List.iteri
    (fun i (client, (request : Proto.request)) ->
      let slot = Slot_log.reserve t.log in
      cmds.(i) <- request.Proto.command;
      Slot_log.set t.log slot
        {
          ballot = t.ballot;
          cmd = request.Proto.command;
          client = Some client;
          (* quorum = None: the shared tracker lives in [t.batches],
             keeping the per-slot retransmission path away from
             batched slots *)
          quorum = None;
          committed = false;
          rkey = 0;
          fb = Sim.nil;
        };
      t.env.obs.Proto.on_propose ~slot ~cmd:request.Proto.command)
    items;
  let tracker = Quorum.fresh (Lazy.force t.q2_template) in
  (match t.env.Proto.storage with
  | None -> Quorum.ack tracker t.env.id
  | Some _ -> () (* self-vote deferred until the batch is durable *));
  let msg =
    P2aBatch
      {
        ballot = t.ballot;
        first_slot;
        cmds;
        commit_up_to = Slot_log.exec_frontier t.log;
      }
  in
  let size_bytes = k * t.env.config.Config.msg_size_bytes in
  let bs =
    if relay_route t then begin
      let gen = relay_gen t in
      t.relay_seq <- t.relay_seq + 1;
      let plan = relay_plan t ~leader:t.env.id ~gen in
      let rkey =
        t.env.rel.post_multi ~size_bytes ~ack:Reliable.Piggyback
          (relay_targets t ~gen plan)
          (RelayRound { gen; inner = msg })
      in
      let bfb =
        t.env.schedule (relay_fallback_ms t) (fun () ->
            relay_fallback_batch t first_slot)
      in
      { bballot = t.ballot; count = k; tracker; rkey; bfb }
    end
    else
      let rkey =
        if t.env.config.Config.thrifty then
          t.env.rel.post_multi ~size_bytes ~ack:Reliable.Piggyback
            (phase2_peers t) msg
        else t.env.rel.post_all ~size_bytes ~ack:Reliable.Piggyback msg
      in
      { bballot = t.ballot; count = k; tracker; rkey; bfb = Sim.nil }
  in
  Hashtbl.replace t.batches first_slot bs;
  match t.env.Proto.storage with
  | None -> if Quorum.satisfied tracker then commit_batch t first_slot bs
  | Some st ->
      Array.iteri
        (fun i cmd ->
          Storage.write st
            (entry_op ~slot:(first_slot + i) ~ballot:bs.bballot ~cmd))
        cmds;
      Storage.sync st (fun () ->
          match Hashtbl.find_opt t.batches first_slot with
          | Some bs' when bs' == bs ->
              Quorum.ack tracker t.env.id;
              if Quorum.satisfied tracker then commit_batch t first_slot bs
          | _ -> () (* round abandoned (step-down) before the fsync *))

let flush_batch t =
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  if t.active && not (Queue.is_empty t.batch_buf) then begin
    let items = List.of_seq (Queue.to_seq t.batch_buf) in
    Queue.clear t.batch_buf;
    propose_batch t items
  end

(* Active-leader ingress: propose immediately, or coalesce into the
   current batch when Config.batching is on. *)
let enqueue t ~client request =
  match t.env.config.Config.batching with
  | None -> propose t ~client request
  | Some b ->
      Queue.push (client, request) t.batch_buf;
      if Queue.length t.batch_buf >= b.Config.max_batch then flush_batch t
      else if Sim.is_nil t.flush_timer then
        t.flush_timer <-
          t.env.schedule b.Config.max_wait_ms (fun () ->
              t.flush_timer <- Sim.nil;
              flush_batch t)

let drain_pending t =
  if t.active then
    while not (Queue.is_empty t.pending) do
      let client, request = Queue.pop t.pending in
      enqueue t ~client request
    done
  else if
    t.ballot.Ballot.round > 0
    && t.ballot.Ballot.owner <> t.env.id
    && t.p1 = None
  then
    while not (Queue.is_empty t.pending) do
      let client, request = Queue.pop t.pending in
      t.env.forward t.ballot.Ballot.owner ~client request
    done

(* Leaving leadership (or candidacy for it): stop serving lease reads,
   abandon lease-renewal and deferred-ack state, and push queued reads
   back onto [pending] so they are forwarded to the new leader. Held
   write acks are simply dropped — their clients retry, and the new
   leader re-proposes and defers the ack correctly. Every queue and
   table is empty when no read path is configured, so this is a no-op
   for plain runs. *)
let resign_read_path t =
  t.lease_acks <- None;
  t.lease_until <- neg_infinity;
  Queue.transfer t.pending_reads t.pending;
  if Hashtbl.length t.held > 0 then Hashtbl.reset t.held;
  if Hashtbl.length t.commit_acks > 0 then Hashtbl.reset t.commit_acks

(* Start (or renew) the lease alongside the keep-alive heartbeat: each
   beat opens a new epoch whose grants are tracked against a fresh
   quorum. The tracker needs only [q2_size] grants — a set of q2
   refusers blocks every phase-1 quorum of n − q2 + 1 — which makes
   FPaxos lease renewal as cheap as its phase-2. *)
let send_heartbeat t =
  if lease_mode t then begin
    t.lease_epoch <- t.lease_epoch + 1;
    t.lease_sent_at <- t.env.now ();
    let tracker = Quorum.fresh (Lazy.force t.q2_template) in
    Quorum.ack tracker t.env.id;
    t.lease_acks <- Some tracker
  end;
  t.env.broadcast
    (Heartbeat
       {
         ballot = t.ballot;
         commit_up_to = Slot_log.exec_frontier t.log;
         epoch = t.lease_epoch;
       });
  t.last_heard <- t.env.now ()

let on_heartbeat_ack t ~src ~ballot ~epoch =
  if t.active && Ballot.equal ballot t.ballot && epoch = t.lease_epoch then
    match t.lease_acks with
    | Some tracker ->
        Quorum.ack tracker src;
        if Quorum.satisfied tracker then begin
          let until = t.lease_sent_at +. serve_window t in
          if until > t.lease_until then t.lease_until <- until;
          maybe_serve_reads t
        end
    | None -> ()

let on_commit_ack t ~src ~slot =
  if t.active && quorum_mode t then begin
    Quorum.ack (commit_tracker t slot) src;
    maybe_release_held t slot
  end

let start_phase1 t =
  t.ballot <- Ballot.next t.ballot ~owner:t.env.id;
  t.active <- false;
  resign_read_path t;
  (* a fresh candidacy obsoletes whatever this replica was still
     retransmitting (an older P1a, stale P2as from lost leadership) *)
  t.env.rel.unpost_all ();
  t.late_posts <- [];
  relay_reset t;
  let tracker =
    Quorum.create (Quorum.Count { members = all_ids t; threshold = q1_size t })
  in
  let state = { tracker; recovered = []; rkey = t.env.rel.fresh () } in
  t.p1 <- Some state;
  Quorum.ack tracker t.env.id;
  let frontier = Slot_log.exec_frontier t.log in
  (* self-report own accepted entries *)
  Slot_log.iter_from t.log ~start:frontier ~f:(fun slot e ->
      state.recovered <- (slot, e.ballot, e.cmd) :: state.recovered);
  let send () =
    ignore
      (t.env.rel.post_all ~key:state.rkey ~ack:Reliable.Piggyback
         (P1a { ballot = t.ballot; frontier }))
  in
  match t.env.Proto.storage with
  | None -> send ()
  | Some st ->
      (* the candidacy's own implicit promise must be durable before
         anyone else can count on it *)
      let b = t.ballot in
      Storage.persist st (durable_ballot_ops b) (fun () ->
          match t.p1 with
          | Some s when s == state && Ballot.equal t.ballot b -> send ()
          | _ -> () (* candidacy superseded before the fsync *))

let become_leader t (state : phase1_state) =
  t.p1 <- None;
  t.active <- true;
  t.last_heard <- t.env.now ();
  (* stop re-soliciting promises from stragglers: they will learn the
     ballot from the P2as and heartbeats that follow *)
  t.env.rel.settle_all ~key:state.rkey;
  Hashtbl.reset t.batches (* stale rounds from a previous leadership *);
  (* Adopt the highest-ballot command reported for every slot at or
     above our commit frontier, fill gaps with no-ops, re-propose. *)
  let best = Hashtbl.create 16 in
  List.iter
    (fun (slot, b, cmd) ->
      match Hashtbl.find_opt best slot with
      | Some (b', _) when Ballot.(b' >= b) -> ()
      | _ -> Hashtbl.replace best slot (b, cmd))
    state.recovered;
  let max_slot = Hashtbl.fold (fun s _ acc -> Stdlib.max s acc) best (-1) in
  let frontier = Slot_log.exec_frontier t.log in
  let resync = ref [] in
  for slot = frontier to max_slot do
    let cmd =
      match Hashtbl.find_opt best slot with
      | Some (_, cmd) -> cmd
      | None -> Command.noop
    in
    let tracker = Quorum.fresh (Lazy.force t.q2_template) in
    (match t.env.Proto.storage with
    | None -> Quorum.ack tracker t.env.id
    | Some _ -> () (* self-vote deferred until the re-proposal is durable *));
    (match Slot_log.get t.log slot with
    | Some e when e.committed -> () (* keep committed state *)
    | Some e ->
        if not (Command.equal e.cmd cmd) then e.client <- None;
        e.ballot <- t.ballot;
        e.cmd <- cmd;
        e.quorum <- Some tracker
    | None ->
        Slot_log.set t.log slot
          {
            ballot = t.ballot;
            cmd;
            client = None;
            quorum = Some tracker;
            committed = false;
            rkey = 0;
            fb = Sim.nil;
          });
    match Slot_log.get t.log slot with
    | Some e when not e.committed ->
        if not (Sim.is_nil e.fb) then begin
          t.env.Proto.cancel e.fb;
          e.fb <- Sim.nil
        end;
        e.rkey <-
          t.env.rel.post_all ~ack:Reliable.Piggyback
            (P2a
               {
                 ballot = t.ballot;
                 slot;
                 cmd = e.cmd;
                 commit_up_to = Slot_log.exec_frontier t.log;
               });
        (match t.env.Proto.storage with
        | None -> ()
        | Some st ->
            Storage.write st (entry_op ~slot ~ballot:e.ballot ~cmd:e.cmd);
            resync := (slot, e) :: !resync)
    | _ -> ()
  done;
  (match t.env.Proto.storage with
  | None -> ()
  | Some st ->
      (* one fsync covers the new term's ballot and every re-proposed
         accept; the self-votes land when it completes *)
      let b = t.ballot in
      let slots = !resync in
      List.iter (Storage.write st) (durable_ballot_ops b);
      Storage.sync st (fun () ->
          if t.active && Ballot.equal t.ballot b then
            List.iter
              (fun (slot, (e : entry)) ->
                match e.quorum with
                | Some tracker when not e.committed ->
                    Quorum.ack tracker t.env.id;
                    maybe_commit_slot t slot e tracker
                | _ -> ())
              slots));
  (* Read barrier: reads wait until everything up to and including the
     recovered tail is applied locally, so no predecessor's
     acknowledged write can be missing from a lease read. *)
  t.read_barrier <- Slot_log.next_slot t.log;
  t.lease_until <- neg_infinity;
  if lease_mode t then send_heartbeat t;
  drain_pending t

let step_down t ~ballot =
  if Ballot.(ballot > t.ballot) then t.ballot <- ballot;
  t.active <- false;
  t.p1 <- None;
  resign_read_path t;
  t.last_heard <- t.env.now ();
  (* everything this replica was retransmitting carried the lost
     ballot; the new leader re-proposes whatever survives phase-1 *)
  t.env.rel.unpost_all ();
  t.late_posts <- [];
  relay_reset t;
  (* abandon in-flight batch rounds; buffered-but-unproposed commands
     go back to [pending] so they are forwarded to the new leader *)
  Hashtbl.reset t.batches;
  t.env.Proto.cancel t.flush_timer;
  t.flush_timer <- Sim.nil;
  Queue.transfer t.batch_buf t.pending;
  drain_pending t

(* Quorum-read coordination: any replica runs an ABD round over the
   shadow registers — query a majority for the freshest applied
   (tag, value) of the key, write the winner back to a majority, then
   answer. Safe because write acks are deferred until a majority
   applied (see [advance]/[maybe_release_held]): every acknowledged
   write is visible to every majority the read can draw. *)
let start_quorum_read t ~client (request : Proto.request) =
  let cmd = request.Proto.command in
  let key = Command.key cmd in
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  let r = Read_quorum.lookup t.shadow ~empty:None key in
  let round =
    Read_quorum.create
      (Quorum.Majority (all_ids t))
      ~self:t.env.id ~local_tag:r.Read_quorum.tag
      ~local_value:r.Read_quorum.value
  in
  Hashtbl.replace t.qreads rid { rclient = client; rcmd = cmd; round };
  t.env.broadcast (ReadQ { rid; key })

let on_readq t ~src ~rid ~key =
  let r = Read_quorum.lookup t.shadow ~empty:None key in
  t.env.send src
    (ReadQR { rid; tag = r.Read_quorum.tag; value = r.Read_quorum.value })

let on_readqr t ~src ~rid ~tag ~value =
  match Hashtbl.find_opt t.qreads rid with
  | Some qr when Read_quorum.query_ack qr.round ~src ~tag ~value ->
      let tag, value = Read_quorum.best qr.round in
      Read_quorum.begin_store qr.round ~self:t.env.id ~tag ~value;
      Read_quorum.adopt
        (Read_quorum.lookup t.shadow ~empty:None (Command.key qr.rcmd))
        ~tag ~value;
      t.env.broadcast (ReadWB { rid; key = Command.key qr.rcmd; tag; value })
  | _ -> ()

let on_readwb t ~src ~rid ~key ~tag ~value =
  Read_quorum.adopt (Read_quorum.lookup t.shadow ~empty:None key) ~tag ~value;
  t.env.send src (ReadWBAck { rid })

let on_readwback t ~src ~rid =
  match Hashtbl.find_opt t.qreads rid with
  | Some qr when Read_quorum.store_ack qr.round ~src ->
      Hashtbl.remove t.qreads rid;
      let _, value = Read_quorum.best qr.round in
      t.quorum_reads <- t.quorum_reads + 1;
      t.env.obs.Proto.on_read ();
      t.env.reply qr.rclient
        {
          Proto.command = qr.rcmd;
          read = value;
          replier = t.env.id;
          leader_hint = None;
        }
  | _ -> ()

let on_request t ~client (request : Proto.request) =
  if quorum_mode t && Command.is_read request.Proto.command then
    start_quorum_read t ~client request
  else if t.active then
    if lease_mode t && Command.is_read request.Proto.command then begin
      if lease_valid t then serve_local_read t ~client request
      else Queue.push (client, request) t.pending_reads
    end
    else enqueue t ~client request
  else if
    t.ballot.Ballot.round > 0
    && t.ballot.Ballot.owner <> t.env.id
    && t.p1 = None
  then t.env.forward t.ballot.Ballot.owner ~client request
  else Queue.push (client, request) t.pending

let on_p1a t ~src ~ballot ~frontier =
  (* Lease safety: while our grant to the current leader is live we
     refuse to promise any other candidate — this is what blocks a new
     leader from forming inside the grantee's serve window. The nok
     is harmless to liveness: the candidate's reliable-delivery layer
     retransmits the P1a and the promise succeeds after expiry. *)
  let lease_blocks =
    lease_mode t
    && ballot.Ballot.owner <> t.lease_holder
    && t.env.now () < t.lease_granted_until
  in
  (* Promise not only strictly higher ballots but also the exact
     ballot we already hold when [src] owns it: we may have adopted it
     from a nok P2b or a duplicate (retransmitted) P1a before this
     copy arrived, and the promise is idempotent. Refusing would make
     a retransmitted P1a elicit nok forever after its P1b was lost. *)
  if
    (not lease_blocks)
    && (Ballot.(ballot > t.ballot)
       || (Ballot.equal ballot t.ballot && ballot.Ballot.owner = src))
  then begin
    t.ballot <- ballot;
    t.active <- false;
    t.p1 <- None;
    resign_read_path t;
    t.last_heard <- t.env.now ();
    let accepted = ref [] in
    Slot_log.iter_chosen t.log ~start:frontier ~f:(fun slot cmd ballot ->
        accepted := (slot, ballot, cmd) :: !accepted);
    Slot_log.iter_from t.log ~start:frontier ~f:(fun slot e ->
        accepted := (slot, e.ballot, e.cmd) :: !accepted);
    (* the promise binds across crashes: it leaves only after the
       promised ballot is on disk *)
    (match t.env.Proto.storage with
    | None -> t.env.send src (P1b { ballot; ok = true; accepted = !accepted })
    | Some st ->
        Storage.persist st (durable_ballot_ops ballot) (fun () ->
            t.env.send src (P1b { ballot; ok = true; accepted = !accepted })));
    drain_pending t
  end
  else t.env.send src (P1b { ballot = t.ballot; ok = false; accepted = [] })

let on_p1b t ~src ~ballot ~ok ~accepted =
  match t.p1 with
  | Some state when Ballot.equal ballot t.ballot && ok ->
      t.env.rel.settle ~dst:src ~key:state.rkey;
      state.recovered <- accepted @ state.recovered;
      Quorum.ack state.tracker src;
      if Quorum.satisfied state.tracker then become_leader t state
  | Some _ when Ballot.(ballot > t.ballot) -> step_down t ~ballot
  | _ -> ()

(* Acceptor-side adoption of one slot of a phase-2 round. An executed
   slot is committed: never overwrite a commit. *)
let adopt_slot t ~ballot ~slot ~cmd =
  if not (Slot_log.executed t.log slot) then
    match Slot_log.get t.log slot with
    | Some e when e.committed -> ()
    | Some e ->
        (* a different command displaced this slot: the old proposer's
           client must not be answered with the new command's result *)
        if not (Command.equal e.cmd cmd) then e.client <- None;
        e.ballot <- ballot;
        e.cmd <- cmd
    | None ->
        Slot_log.set t.log slot
          {
            ballot;
            cmd;
            client = None;
            quorum = None;
            committed = false;
            rkey = 0;
            fb = Sim.nil;
          }

(* Acceptor-side adoption of a single-slot phase-2 round, shared by
   the direct path (reply with a P2b) and the relay path (the relay
   accepts silently and folds its own vote into the aggregated
   bitmap). Returns [true] when the round was accepted at [ballot]. *)
let accept_p2a t ~ballot ~slot ~cmd ~commit_up_to:bound =
  if Ballot.(ballot >= t.ballot) then begin
    t.ballot <- ballot;
    if ballot.Ballot.owner <> t.env.id then begin
      if t.active then resign_read_path t;
      t.active <- false;
      t.p1 <- None
    end;
    t.last_heard <- t.env.now ();
    adopt_slot t ~ballot ~slot ~cmd;
    (match t.env.Proto.storage with
    | None -> ()
    | Some st ->
        List.iter (Storage.write st) (durable_ballot_ops ballot);
        Storage.write st (entry_op ~slot ~ballot ~cmd));
    commit_up_to t bound;
    true
  end
  else false

let on_p2a t ~src ~ballot ~slot ~cmd ~commit_up_to =
  if accept_p2a t ~ballot ~slot ~cmd ~commit_up_to then begin
    (* the accept vote leaves only after its record is durable *)
    (match t.env.Proto.storage with
    | None -> t.env.send src (P2b { ballot; slot; ok = true })
    | Some st ->
        Storage.sync st (fun () ->
            t.env.send src (P2b { ballot; slot; ok = true })));
    drain_pending t
  end
  else t.env.send src (P2b { ballot = t.ballot; slot; ok = false })

(* Acceptor side of a batched round: store every slot, then send ONE
   ack covering the whole range — the per-slot adoption logic is
   identical to [accept_p2a]. *)
let accept_p2a_batch t ~ballot ~first_slot ~cmds ~commit_up_to:bound =
  if Ballot.(ballot >= t.ballot) then begin
    t.ballot <- ballot;
    if ballot.Ballot.owner <> t.env.id then begin
      if t.active then resign_read_path t;
      t.active <- false;
      t.p1 <- None
    end;
    t.last_heard <- t.env.now ();
    Array.iteri
      (fun i cmd -> adopt_slot t ~ballot ~slot:(first_slot + i) ~cmd)
      cmds;
    (match t.env.Proto.storage with
    | None -> ()
    | Some st ->
        List.iter (Storage.write st) (durable_ballot_ops ballot);
        Array.iteri
          (fun i cmd ->
            Storage.write st (entry_op ~slot:(first_slot + i) ~ballot ~cmd))
          cmds);
    commit_up_to t bound;
    true
  end
  else false

let on_p2a_batch t ~src ~ballot ~first_slot ~cmds ~commit_up_to =
  let count = Array.length cmds in
  if accept_p2a_batch t ~ballot ~first_slot ~cmds ~commit_up_to then begin
    (match t.env.Proto.storage with
    | None -> t.env.send src (P2bBatch { ballot; first_slot; count; ok = true })
    | Some st ->
        Storage.sync st (fun () ->
            t.env.send src
              (P2bBatch { ballot; first_slot; count; ok = true })));
    drain_pending t
  end
  else
    t.env.send src
      (P2bBatch { ballot = t.ballot; first_slot; count; ok = false })

(* Relay ingress: accept the inner round locally, fan the plain round
   out to the group (members reply to us, not the leader), and start
   the aggregation record. A duplicate wrapper — the leader is
   retransmitting because our ack or some member's copy got lost —
   re-sends the completed ack, or re-fans to the members whose bits
   are still clear. *)
let on_relay_round t ~src ~gen ~inner =
  let info =
    match inner with
    | P2a { ballot; slot; _ } -> Some (ballot, slot, 1, false, 0)
    | P2aBatch { ballot; first_slot; cmds; _ } ->
        Some
          ( ballot,
            first_slot,
            Array.length cmds,
            true,
            Array.length cmds * t.env.config.Config.msg_size_bytes )
    | _ -> None
  in
  match info with
  | None -> ()
  | Some (ballot, first_slot, count, batch, fan_size) -> (
      let fan dst =
        if batch then t.env.send_sized dst ~size_bytes:fan_size inner
        else t.env.send dst inner
      in
      match Hashtbl.find_opt t.relay_aggs first_slot with
      | Some a
        when a.Relay.a_tag = ballot.Ballot.round
             && a.Relay.a_leader = ballot.Ballot.owner
             && a.Relay.a_batch = batch
             && a.Relay.a_aux = count ->
          if a.Relay.a_complete then relay_send_ack t first_slot a
          else begin
            let g = a.Relay.a_group in
            for i = 1 to Array.length g - 1 do
              if a.Relay.a_bits land (1 lsl i) = 0 then fan g.(i)
            done
          end
      | stale ->
          let accepted =
            match inner with
            | P2a { ballot; slot; cmd; commit_up_to } ->
                accept_p2a t ~ballot ~slot ~cmd ~commit_up_to
            | P2aBatch { ballot; first_slot; cmds; commit_up_to } ->
                accept_p2a_batch t ~ballot ~first_slot ~cmds ~commit_up_to
            | _ -> false
          in
          if not accepted then
            (* we know a higher ballot: nok straight back to the
               leader, exactly as the direct path would *)
            if batch then
              t.env.send src
                (P2bBatch { ballot = t.ballot; first_slot; count; ok = false })
            else
              t.env.send src
                (P2b { ballot = t.ballot; slot = first_slot; ok = false })
          else begin
            (match stale with
            | Some old -> relay_drop t first_slot old
            | None -> ());
            let leader = ballot.Ballot.owner in
            let plan = relay_plan t ~leader ~gen in
            let gi = plan.Relay.group_of.(t.env.id) in
            if gi < 0 || plan.Relay.groups.(gi).(0) <> t.env.id then begin
              (* not a relay under this plan (the round raced a plan
                 rotation): behave like a plain acceptor *)
              if batch then
                t.env.send src (P2bBatch { ballot; first_slot; count; ok = true })
              else t.env.send src (P2b { ballot; slot = first_slot; ok = true })
            end
            else begin
              let group = plan.Relay.groups.(gi) in
              let a =
                Relay.alloc t.relay_pool ~leader ~gen ~group
                  ~tag:ballot.Ballot.round ~aux:count ~batch
              in
              a.Relay.a_t0 <- t.env.now ();
              Relay.set_bit a 0 (* position 0 = self: our own accept *);
              Hashtbl.replace t.relay_aggs first_slot a;
              List.iter fan (relay_fan_list t ~leader ~gen plan gi);
              if Relay.complete a then relay_finalize t first_slot a
              else
                a.Relay.a_flush <-
                  t.env.schedule (relay_flush_ms t) (fun () ->
                      relay_flush t first_slot);
              relay_prune t
            end;
            drain_pending t
          end)

let on_p2b_batch t ~src ~ballot ~first_slot ~count ~ok =
  if relay_absorb_p2b t ~src ~ballot ~first_slot ~count ~batch:true ~ok then ()
  else if ok && t.active && Ballot.equal ballot t.ballot then begin
    match Hashtbl.find_opt t.batches first_slot with
    | Some bs when bs.count = count && Ballot.equal bs.bballot ballot ->
        t.env.rel.settle ~dst:src ~key:bs.rkey;
        Quorum.ack bs.tracker src;
        if Quorum.satisfied bs.tracker then commit_batch t first_slot bs
    | _ -> ()
  end
  else if (not ok) && Ballot.(ballot > t.ballot) then step_down t ~ballot

let on_p2b t ~src ~ballot ~slot ~ok =
  if relay_absorb_p2b t ~src ~ballot ~first_slot:slot ~count:1 ~batch:false ~ok
  then ()
  else if ok && t.active && Ballot.equal ballot t.ballot then begin
    if Slot_log.executed t.log slot then settle_late t ~src slot
    else
      match Slot_log.get t.log slot with
      | Some ({ quorum = Some tracker; committed = false; _ } as e) ->
          t.env.rel.settle ~dst:src ~key:e.rkey;
          Quorum.ack tracker src;
          maybe_commit_slot t slot e tracker
      | Some { committed = true; rkey; _ } when rkey <> 0 ->
          (* late ack for an already-committed slot: just stop the timer *)
          t.env.rel.settle ~dst:src ~key:rkey
      | _ -> ()
  end
  else if (not ok) && Ballot.(ballot > t.ballot) then step_down t ~ballot

(* Leader ingress of an aggregated ack: translate bitmap positions
   back to replica ids through the shared plan and feed the ordinary
   quorum trackers — quorum accounting is exactly as if each member
   had replied directly. The relay's reliable post settles only on a
   FULL group bitmap: a partial flush keeps the wrapper
   retransmitting, which is what re-prods the relay to re-fan to its
   silent members. *)
let on_relay_ack t ~src ~ballot ~gen ~first_slot ~count ~batch ~bits =
  if t.active && relay_on t && Ballot.equal ballot t.ballot then begin
    let plan = relay_plan t ~leader:t.env.id ~gen in
    let gi = plan.Relay.group_of.(src) in
    if gi >= 0 && plan.Relay.groups.(gi).(0) = src then begin
      let group = plan.Relay.groups.(gi) in
      let mask = Relay.full_mask (Array.length group) in
      let full = bits land mask = mask in
      if batch then begin
        match Hashtbl.find_opt t.batches first_slot with
        | Some bs when bs.count = count && Ballot.equal bs.bballot ballot ->
            if full then t.env.rel.settle ~dst:src ~key:bs.rkey;
            for i = 0 to Array.length group - 1 do
              if bits land (1 lsl i) <> 0 then Quorum.ack bs.tracker group.(i)
            done;
            if Quorum.satisfied bs.tracker then commit_batch t first_slot bs
        | _ -> ()
      end
      else if Slot_log.executed t.log first_slot then begin
        if full then settle_late t ~src first_slot
      end
      else begin
        match Slot_log.get t.log first_slot with
        | Some ({ quorum = Some tracker; committed = false; _ } as e) ->
            if full then t.env.rel.settle ~dst:src ~key:e.rkey;
            for i = 0 to Array.length group - 1 do
              if bits land (1 lsl i) <> 0 then Quorum.ack tracker group.(i)
            done;
            maybe_commit_slot t first_slot e tracker
        | Some { committed = true; rkey; _ } when full && rkey <> 0 ->
            t.env.rel.settle ~dst:src ~key:rkey
        | _ -> ()
      end
    end
  end

let on_commit t ~slot ~cmd =
  (* an executed slot already holds its committed command *)
  (if not (Slot_log.executed t.log slot) then
     match Slot_log.get t.log slot with
     | Some e ->
         e.cmd <- cmd;
         e.committed <- true;
         e.quorum <- None
     | None ->
         Slot_log.set t.log slot
           {
             ballot = t.ballot;
             cmd;
             client = None;
             quorum = None;
             committed = true;
             rkey = 0;
             fb = Sim.nil;
           });
  advance t

let on_heartbeat t ~src ~ballot ~commit_up_to:bound ~epoch =
  if Ballot.(ballot >= t.ballot) then begin
    t.ballot <- ballot;
    if ballot.Ballot.owner <> t.env.id then begin
      if t.active then resign_read_path t;
      t.active <- false
    end;
    t.last_heard <- t.env.now ();
    (* Accepting the beat is the lease grant: promise not to help any
       other candidate for a serve window, and tell the leader so. The
       grant is renewed wholesale — [lease_granted_until] only moves
       forward here since beats arrive every window/6. *)
    if lease_mode t && ballot.Ballot.owner <> t.env.id then begin
      t.lease_holder <- ballot.Ballot.owner;
      let until = t.env.now () +. serve_window t in
      if until > t.lease_granted_until then t.lease_granted_until <- until;
      t.env.send src (HeartbeatAck { ballot; epoch })
    end;
    commit_up_to t bound;
    drain_pending t
  end

let on_message t ~src msg =
  match msg with
  | P1a { ballot; frontier } -> on_p1a t ~src ~ballot ~frontier
  | P1b { ballot; ok; accepted } -> on_p1b t ~src ~ballot ~ok ~accepted
  | P2a { ballot; slot; cmd; commit_up_to } ->
      on_p2a t ~src ~ballot ~slot ~cmd ~commit_up_to
  | P2b { ballot; slot; ok } -> on_p2b t ~src ~ballot ~slot ~ok
  | P2aBatch { ballot; first_slot; cmds; commit_up_to } ->
      on_p2a_batch t ~src ~ballot ~first_slot ~cmds ~commit_up_to
  | P2bBatch { ballot; first_slot; count; ok } ->
      on_p2b_batch t ~src ~ballot ~first_slot ~count ~ok
  | Commit { slot; cmd } -> on_commit t ~slot ~cmd
  | Heartbeat { ballot; commit_up_to; epoch } ->
      on_heartbeat t ~src ~ballot ~commit_up_to ~epoch
  | HeartbeatAck { ballot; epoch } -> on_heartbeat_ack t ~src ~ballot ~epoch
  | CommitAck { slot } -> on_commit_ack t ~src ~slot
  | ReadQ { rid; key } -> on_readq t ~src ~rid ~key
  | ReadQR { rid; tag; value } -> on_readqr t ~src ~rid ~tag ~value
  | ReadWB { rid; key; tag; value } -> on_readwb t ~src ~rid ~key ~tag ~value
  | ReadWBAck { rid } -> on_readwback t ~src ~rid
  | RelayRound { gen; inner } -> on_relay_round t ~src ~gen ~inner
  | RelayAck { ballot; gen; first_slot; count; batch; bits } ->
      on_relay_ack t ~src ~ballot ~gen ~first_slot ~count ~batch ~bits

let rec heartbeat_loop t =
  let period = t.env.config.Config.failover_timeout_ms /. 4.0 in
  ignore
  @@ t.env.schedule period (fun () ->
         (* Lost P2a/P2b recovery now lives in the reliable-delivery
            layer (each phase-2 post retransmits on its own backoff
            timer until acked) — the beat is a pure keep-alive plus
            commit-frontier carrier, and in lease mode also the lease
            renewal round. *)
         if t.active then send_heartbeat t;
         heartbeat_loop t)

let rec failover_loop t =
  (* Stagger timeouts by id so the lowest live replica usually wins. *)
  let base = t.env.config.Config.failover_timeout_ms in
  let timeout = base *. (1.5 +. (0.5 *. float_of_int t.env.id)) in
  ignore
  @@ t.env.schedule (base /. 2.0) (fun () ->
         if
           (not t.active) && t.p1 = None
           && t.env.now () -. t.last_heard > timeout
         then start_phase1 t;
         failover_loop t)

let on_start t =
  t.last_heard <- t.env.now ();
  if t.env.id = 0 then start_phase1 t;
  heartbeat_loop t;
  failover_loop t

(* Boot a FRESH replica instance from durable state after a crash
   (the cluster engine swaps instances at the recovery edge). By
   construction everything volatile is gone — leadership, phase-1
   progress, leases, batches, client continuations. Only the promised
   ballot (registers 0/1) and the accepted log survive; commits and
   the KV image are re-derived as the replica re-learns the commit
   frontier from the incumbent leader (or re-runs phase 1 itself on
   failover timeout — a recovered leader never resumes its old term). *)
let on_recover t =
  (match t.env.Proto.storage with
  | None -> ()
  | Some st ->
      let round = Storage.reg st 0 and owner = Storage.reg st 1 in
      if round > 0 then t.ballot <- { Ballot.round; owner };
      Storage.iter_entries st ~f:(fun slot (de : Storage.entry) ->
          Slot_log.set t.log slot
            {
              ballot = { Ballot.round = de.Storage.a; owner = de.Storage.b };
              cmd = de.Storage.cmd;
              client = None;
              quorum = None;
              committed = false;
              rkey = 0;
              fb = Sim.nil;
            }));
  t.last_heard <- t.env.now ();
  heartbeat_loop t;
  failover_loop t
