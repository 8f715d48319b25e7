type message =
  | P1a of { key : Command.key; ballot : Ballot.t; frontier : int }
  | P1b of {
      key : Command.key;
      ballot : Ballot.t;
      ok : bool;
      accepted : (int * Ballot.t * Command.t * bool) list;
          (** slot, ballot, command, committed? — committed entries let
              the new owner catch up on state it missed *)
    }
  | P2a of {
      key : Command.key;
      ballot : Ballot.t;
      slot : int;
      cmd : Command.t;
      commit_up_to : int;
    }
  | P2b of { key : Command.key; ballot : Ballot.t; slot : int; ok : bool }
  | CommitK of { key : Command.key; slot : int; cmd : Command.t }
  | StealHint of { key : Command.key }
      (** the owner observed enough consecutive accesses from the
          recipient's zone; the recipient should steal the object *)

let name = "wpaxos"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | P1a _ -> "P1a"
  | P1b _ -> "P1b"
  | P2a _ -> "P2a"
  | P2b _ -> "P2b"
  | CommitK _ -> "CommitK"
  | StealHint _ -> "StealHint"

type entry = {
  mutable ballot : Ballot.t;
  mutable cmd : Command.t;
  mutable client : Address.t option;
  mutable quorum : Quorum.t option;
  mutable committed : bool;
  mutable rkey : int;
      (** reliable-delivery key of the in-flight P2a (0 when none) *)
}

type phase1_state = {
  tracker : Quorum.t;
  mutable recovered : (int * Ballot.t * Command.t * bool) list;
  rkey : int;  (** reliable-delivery key of the steal's P1a broadcast *)
}

type key_state = {
  mutable ballot : Ballot.t;
  mutable owner_active : bool; (* this replica completed phase-1 *)
  log : (entry, Ballot.t) Slot_log.t;
      (* executed slots keep only their command and ballot *)
  mutable late_posts : (int * int) list;
      (* owner: (slot, rkey) of executed slots whose P2a post was still
         open when they executed — committed by a CommitK rather than
         by their own quorum — so late P2bs still settle it *)
  mutable p1 : phase1_state option;
  pending : (Address.t * Proto.request) Queue.t;
  (* owner-side locality tracking: consecutive requests from one
     remote zone (the three-consecutive-access policy, §5.3). The
     owner sees the globally interleaved request stream, so contended
     objects never trigger adaptation — they stay put, as in the
     paper's conflict experiments. *)
  mutable streak_zone : int;
  mutable streak : int;
  mutable last_migration_ms : float;
}

type replica = {
  env : message Proto.env;
  zones : int list array; (* replica ids per zone *)
  my_zone : int;
  keys : (Command.key, key_state) Hashtbl.t;
  exec : Executor.t;
  mutable steals : int;
  mutable committed : int;
}

let zone_layout (env : _ Proto.env) =
  let regions = Topology.regions env.Proto.topology in
  let zones =
    List.map (fun r -> Topology.replicas_in env.Proto.topology r) regions
  in
  Array.of_list zones

let find_zone zones id =
  let z = ref 0 in
  Array.iteri (fun i members -> if List.mem id members then z := i) zones;
  !z

(* The paper's evaluation restricts leaders to the first
   [leaders_per_region] replicas of each zone. *)
let zone_leaders (t : replica) zone =
  List.filteri
    (fun rank _ -> rank < t.env.config.Config.leaders_per_region)
    t.zones.(zone)

let is_leader_node t = List.mem t.env.id (zone_leaders t t.my_zone)

let create env =
  let zones = zone_layout env in
  {
    env;
    zones;
    my_zone = find_zone zones env.Proto.id;
    keys = Hashtbl.create 256;
    exec = Executor.create ();
    steals = 0;
    committed = 0;
  }

let entry_cmd (e : entry) = e.cmd
let entry_ballot (e : entry) = e.ballot
let keep = Some (entry_cmd, entry_ballot)

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some ks -> ks
  | None ->
      let ballot, owner_active =
        match t.env.config.Config.initial_object_owner with
        | Some owner -> (Ballot.initial ~owner, owner = t.env.id)
        | None -> (Ballot.zero, false)
      in
      let ks =
        {
          ballot;
          owner_active;
          log = Slot_log.create ?keep ();
          late_posts = [];
          p1 = None;
          pending = Queue.create ();
          streak_zone = -1;
          streak = 0;
          last_migration_ms = neg_infinity;
        }
      in
      Hashtbl.add t.keys key ks;
      ks

let executor t = t.exec
let owns t key = (key_state t key).owner_active

let owner_of t key =
  let ks = key_state t key in
  if ks.ballot.Ballot.round > 0 then Some ks.ballot.Ballot.owner else None

let leader_of_key = owner_of
let steals_started t = t.steals
let commands_committed t = t.committed

let n_zones t = Array.length t.zones

(* Phase-1 quorum: majority in each of Z - fz zones. *)
let q1_spec t =
  let need = Stdlib.max 1 (n_zones t - t.env.config.Config.fz) in
  Quorum.Zones
    {
      zones = Array.to_list t.zones;
      need_zones = need;
      per_zone = Quorum.Per_zone_majority;
    }

(* Phase-2 zones: own zone plus the fz nearest others. *)
let q2_zones t =
  let fz = t.env.config.Config.fz in
  let my_region = Topology.region_of_replica t.env.topology t.env.id in
  let others =
    List.init (n_zones t) (fun z -> z)
    |> List.filter (fun z -> z <> t.my_zone)
    |> List.sort (fun a b ->
           let d z =
             match t.zones.(z) with
             | r :: _ ->
                 Topology.rtt_mean t.env.topology my_region
                   (Topology.region_of_replica t.env.topology r)
             | [] -> infinity
           in
           Float.compare (d a) (d b))
  in
  let chosen = List.filteri (fun rank _ -> rank < fz) others in
  t.my_zone :: chosen

let q2_spec t =
  let zs = q2_zones t in
  Quorum.Zones
    {
      zones = List.map (fun z -> t.zones.(z)) zs;
      need_zones = List.length zs;
      per_zone = Quorum.Per_zone_majority;
    }

(* Execute committed per-key slots in order; the owner answers
   clients. *)
let advance t (ks : key_state) =
  Slot_log.advance_frontier ks.log
    ~executable:(fun (e : entry) -> e.committed)
    ~f:(fun slot (e : entry) ->
      let read = Executor.execute t.exec e.cmd in
      t.committed <- t.committed + 1;
      if e.rkey <> 0 then begin
        if ks.owner_active then ks.late_posts <- (slot, e.rkey) :: ks.late_posts;
        e.rkey <- 0
      end;
      match e.client with
      | Some client ->
          e.client <- None;
          t.env.reply client
            {
              Proto.command = e.cmd;
              read;
              replier = t.env.id;
              leader_hint = None;
            }
      | None -> ())

let commit_up_to t ks bound =
  let changed = ref false in
  (* slots below the frontier are committed by construction (the
     frontier only advances over committed entries) — skip them. *)
  for slot = Slot_log.exec_frontier ks.log to bound - 1 do
    match Slot_log.get ks.log slot with
    | Some (e : entry) when not e.committed ->
        e.committed <- true;
        e.quorum <- None;
        changed := true
    | _ -> ()
  done;
  if !changed then advance t ks

(* Stop retransmitting everything this replica had in flight for one
   object: its steal's P1a and any owner-side P2as. Called wherever
   the replica is preempted for the key — the winner re-proposes. *)
let withdraw_posts t (ks : key_state) =
  (match ks.p1 with
  | Some st when st.rkey <> 0 -> t.env.rel.settle_all ~key:st.rkey
  | _ -> ());
  Slot_log.iter_from ks.log ~start:(Slot_log.exec_frontier ks.log)
    ~f:(fun _slot (e : entry) ->
      if e.rkey <> 0 then begin
        t.env.rel.settle_all ~key:e.rkey;
        e.rkey <- 0
      end);
  (* late acks for these carry a ballot we are leaving: none can match *)
  ks.late_posts <- []

let propose t key ks ~client (request : Proto.request) =
  let slot = Slot_log.reserve ks.log in
  let tracker = Quorum.create (q2_spec t) in
  Quorum.ack tracker t.env.id;
  let entry =
    {
      ballot = ks.ballot;
      cmd = request.Proto.command;
      client = Some client;
      quorum = Some tracker;
      committed = false;
      rkey = 0;
    }
  in
  Slot_log.set ks.log slot entry;
  let msg =
    P2a
      {
        key;
        ballot = ks.ballot;
        slot;
        cmd = request.Proto.command;
        commit_up_to = Slot_log.exec_frontier ks.log;
      }
  in
  entry.rkey <-
    (if t.env.config.Config.thrifty then begin
       (* contact only the phase-2 zones *)
       let dsts =
         List.concat_map (fun z -> t.zones.(z)) (q2_zones t)
         |> List.filter (fun i -> i <> t.env.id)
       in
       t.env.rel.post_multi ~ack:Reliable.Piggyback dsts msg
     end
     else t.env.rel.post_all ~ack:Reliable.Piggyback msg
       (* full replication, as in §5 *))

let drain_pending t key ks =
  if ks.owner_active then
    while not (Queue.is_empty ks.pending) do
      let client, request = Queue.pop ks.pending in
      propose t key ks ~client request
    done
  else if
    ks.ballot.Ballot.round > 0
    && ks.ballot.Ballot.owner <> t.env.id
    && ks.p1 = None
  then
    while not (Queue.is_empty ks.pending) do
      let client, request = Queue.pop ks.pending in
      t.env.forward ks.ballot.Ballot.owner ~client request
    done

let zone_of_address t addr =
  let region = Topology.region_of t.env.topology addr in
  let z = ref t.my_zone in
  Array.iteri
    (fun i members ->
      match members with
      | m :: _ ->
          if Region.equal (Topology.region_of_replica t.env.topology m) region
          then z := i
      | [] -> ())
    t.zones;
  !z

let start_steal t key ks =
  t.steals <- t.steals + 1;
  ks.ballot <- Ballot.next ks.ballot ~owner:t.env.id;
  ks.owner_active <- false;
  ks.streak <- 0;
  ks.streak_zone <- -1;
  (* our older in-flight posts (a lost steal, preempted P2as) are
     superseded by this candidacy *)
  withdraw_posts t ks;
  let tracker = Quorum.create (q1_spec t) in
  let state = { tracker; recovered = []; rkey = t.env.rel.fresh () } in
  ks.p1 <- Some state;
  Quorum.ack tracker t.env.id;
  let frontier = Slot_log.exec_frontier ks.log in
  Slot_log.iter_from ks.log ~start:frontier ~f:(fun slot (e : entry) ->
      state.recovered <- (slot, e.ballot, e.cmd, e.committed) :: state.recovered);
  ignore
    (t.env.rel.post_all ~key:state.rkey ~ack:Reliable.Piggyback
       (P1a { key; ballot = ks.ballot; frontier }))

let become_owner t key ks (state : phase1_state) =
  ks.p1 <- None;
  ks.owner_active <- true;
  (* stop re-soliciting promises; stragglers learn from P2a/CommitK *)
  t.env.rel.settle_all ~key:state.rkey;
  (* Committed entries reported by the quorum are adopted as-is (they
     carry state the stealer may have missed — q1 intersects every
     phase-2 quorum, so every committed slot is reported by someone);
     uncommitted slots adopt the highest-ballot command and are
     re-proposed; unreported gaps become no-ops. *)
  let best = Hashtbl.create 8 in
  List.iter
    (fun (slot, b, cmd, committed) ->
      match Hashtbl.find_opt best slot with
      | Some (_, _, true) -> ()
      | Some (b', _, false) when committed || Ballot.(b > b') ->
          Hashtbl.replace best slot (b, cmd, committed)
      | Some _ -> ()
      | None -> Hashtbl.replace best slot (b, cmd, committed))
    state.recovered;
  let max_slot = Hashtbl.fold (fun s _ acc -> Stdlib.max s acc) best (-1) in
  for slot = Slot_log.exec_frontier ks.log to max_slot do
    let cmd, already_committed =
      match Hashtbl.find_opt best slot with
      | Some (_, cmd, committed) -> (cmd, committed)
      | None -> (Command.noop, false)
    in
    (match Slot_log.get ks.log slot with
    | Some (e : entry) when e.committed -> ()
    | Some e ->
        if not (Command.equal e.cmd cmd) then e.client <- None;
        e.ballot <- ks.ballot;
        e.cmd <- cmd;
        if already_committed then begin
          e.committed <- true;
          e.quorum <- None
        end
        else begin
          let tracker = Quorum.create (q2_spec t) in
          Quorum.ack tracker t.env.id;
          e.quorum <- Some tracker
        end
    | None ->
        let tracker = Quorum.create (q2_spec t) in
        Quorum.ack tracker t.env.id;
        Slot_log.set ks.log slot
          {
            ballot = ks.ballot;
            cmd;
            client = None;
            quorum = Some tracker;
            committed = already_committed;
            rkey = 0;
          });
    match Slot_log.get ks.log slot with
    | Some (e : entry) when not e.committed ->
        e.rkey <-
          t.env.rel.post_all ~ack:Reliable.Piggyback
            (P2a
               {
                 key;
                 ballot = ks.ballot;
                 slot;
                 cmd = e.cmd;
                 commit_up_to = Slot_log.exec_frontier ks.log;
               })
    | _ -> ()
  done;
  advance t ks;
  drain_pending t key ks

(* Owner-side adaptation: count consecutive requests from a single
   remote zone; at the threshold, tell that zone's leader to steal. *)
let note_owner_access t key ks ~client =
  let origin = zone_of_address t client in
  if origin = t.my_zone then begin
    ks.streak_zone <- -1;
    ks.streak <- 0
  end
  else begin
    if ks.streak_zone = origin then ks.streak <- ks.streak + 1
    else begin
      ks.streak_zone <- origin;
      ks.streak <- 1
    end;
    if
      ks.streak >= t.env.config.Config.migration_threshold
      && t.env.now () -. ks.last_migration_ms
         >= t.env.config.Config.migration_cooldown_ms
    then begin
      ks.streak <- 0;
      ks.streak_zone <- -1;
      ks.last_migration_ms <- t.env.now ();
      match zone_leaders t origin with
      | l :: _ -> t.env.send l (StealHint { key })
      | [] -> ()
    end
  end

let on_request t ~client (request : Proto.request) =
  let key = Command.key request.Proto.command in
  (* Non-leader replicas hand requests to a leader in their zone. *)
  if not (is_leader_node t) then
    match zone_leaders t t.my_zone with
    | l :: _ when l <> t.env.id -> t.env.forward l ~client request
    | _ -> () (* no leader configured; drop *)
  else begin
    let ks = key_state t key in
    if ks.owner_active then begin
      note_owner_access t key ks ~client;
      propose t key ks ~client request
    end
    else if ks.p1 <> None then Queue.push (client, request) ks.pending
    else if ks.ballot.Ballot.round = 0 then begin
      (* unowned: claim it *)
      Queue.push (client, request) ks.pending;
      start_steal t key ks
    end
    else t.env.forward ks.ballot.Ballot.owner ~client request
  end

let on_steal_hint t key =
  if is_leader_node t then begin
    let ks = key_state t key in
    if (not ks.owner_active) && ks.p1 = None then start_steal t key ks
  end

let on_p1a t ~src ~key ~ballot ~frontier =
  let ks = key_state t key in
  (* Acking is correct not only for strictly higher ballots but also
     when we already sit at this exact ballot with [src] as its owner:
     the promise is idempotent, and we may have adopted the ballot
     through a nok [P2b] (preemption) or a duplicate [P1a]
     (retransmission) before the steal's own [P1a] reached us.
     Without the re-ack a 2-replica zone can wedge a steal forever:
     the preempted owner's vote is mandatory there, and it would
     refuse the very ballot it already deferred to. *)
  if
    Ballot.(ballot > ks.ballot)
    || (Ballot.equal ballot ks.ballot && ballot.Ballot.owner = src)
  then begin
    withdraw_posts t ks;
    ks.ballot <- ballot;
    ks.owner_active <- false;
    ks.p1 <- None;
    let accepted = ref [] in
    Slot_log.iter_chosen ks.log ~start:frontier ~f:(fun slot cmd ballot ->
        accepted := (slot, ballot, cmd, true) :: !accepted);
    Slot_log.iter_from ks.log ~start:frontier ~f:(fun slot (e : entry) ->
        accepted := (slot, e.ballot, e.cmd, e.committed) :: !accepted);
    t.env.send src (P1b { key; ballot; ok = true; accepted = !accepted });
    drain_pending t key ks
  end
  else
    t.env.send src (P1b { key; ballot = ks.ballot; ok = false; accepted = [] })

let on_p1b t ~src ~key ~ballot ~ok ~accepted =
  let ks = key_state t key in
  match ks.p1 with
  | Some state when Ballot.equal ballot ks.ballot && ok ->
      t.env.rel.settle ~dst:src ~key:state.rkey;
      state.recovered <- accepted @ state.recovered;
      Quorum.ack state.tracker src;
      if Quorum.satisfied state.tracker then become_owner t key ks state
  | Some _ when Ballot.(ballot > ks.ballot) ->
      (* lost the steal race; defer to the higher ballot *)
      withdraw_posts t ks;
      ks.ballot <- ballot;
      ks.p1 <- None;
      ks.owner_active <- false;
      drain_pending t key ks
  | _ -> ()

let on_p2a t ~src ~key ~ballot ~slot ~cmd ~commit_up_to:bound =
  let ks = key_state t key in
  if Ballot.(ballot >= ks.ballot) then begin
    ks.ballot <- ballot;
    if ballot.Ballot.owner <> t.env.id then begin
      withdraw_posts t ks;
      ks.owner_active <- false;
      ks.p1 <- None
    end;
    (if not (Slot_log.executed ks.log slot) then
       match Slot_log.get ks.log slot with
       | Some (e : entry) when e.committed -> ()
       | Some e ->
           if not (Command.equal e.cmd cmd) then e.client <- None;
           e.ballot <- ballot;
           e.cmd <- cmd
       | None ->
           Slot_log.set ks.log slot
             { ballot; cmd; client = None; quorum = None; committed = false; rkey = 0 });
    commit_up_to t ks bound;
    t.env.send src (P2b { key; ballot; slot; ok = true });
    drain_pending t key ks
  end
  else t.env.send src (P2b { key; ballot = ks.ballot; slot; ok = false })

let on_p2b t ~src ~key ~ballot ~slot ~ok =
  let ks = key_state t key in
  if ok && ks.owner_active && Ballot.equal ballot ks.ballot then begin
    if Slot_log.executed ks.log slot then begin
      match List.assoc_opt slot ks.late_posts with
      | Some rkey -> t.env.rel.settle ~dst:src ~key:rkey
      | None -> ()
    end
    else
      match Slot_log.get ks.log slot with
      | Some ({ quorum = Some tracker; committed = false; _ } as e : entry) ->
          t.env.rel.settle ~dst:src ~key:e.rkey;
          Quorum.ack tracker src;
          if Quorum.satisfied tracker then begin
            e.committed <- true;
            e.quorum <- None;
            t.env.rel.settle_all ~key:e.rkey;
            e.rkey <- 0;
            advance t ks;
            t.env.broadcast (CommitK { key; slot; cmd = e.cmd })
          end
      | Some ({ committed = true; rkey; _ } : entry) when rkey <> 0 ->
          (* late ack for an already-committed slot: stop the timer *)
          t.env.rel.settle ~dst:src ~key:rkey
      | _ -> ()
  end
  else if (not ok) && Ballot.(ballot > ks.ballot) then begin
    withdraw_posts t ks;
    ks.ballot <- ballot;
    ks.owner_active <- false;
    ks.p1 <- None;
    drain_pending t key ks
  end

let on_commit t ~key ~slot ~cmd =
  let ks = key_state t key in
  (if not (Slot_log.executed ks.log slot) then
     match Slot_log.get ks.log slot with
     | Some (e : entry) ->
         if not (Command.equal e.cmd cmd) then e.client <- None;
         e.cmd <- cmd;
         e.committed <- true;
         e.quorum <- None
     | None ->
         Slot_log.set ks.log slot
           {
             ballot = ks.ballot;
             cmd;
             client = None;
             quorum = None;
             committed = true;
             rkey = 0;
           });
  advance t ks

let on_message t ~src = function
  | P1a { key; ballot; frontier } -> on_p1a t ~src ~key ~ballot ~frontier
  | P1b { key; ballot; ok; accepted } -> on_p1b t ~src ~key ~ballot ~ok ~accepted
  | P2a { key; ballot; slot; cmd; commit_up_to } ->
      on_p2a t ~src ~key ~ballot ~slot ~cmd ~commit_up_to
  | P2b { key; ballot; slot; ok } -> on_p2b t ~src ~key ~ballot ~slot ~ok
  | CommitK { key; slot; cmd } -> on_commit t ~key ~slot ~cmd
  | StealHint { key } -> on_steal_hint t key

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
