type target = Nearest | Fixed of int | Round_robin

type arrival = Arrival.t =
  | Closed
  | Open of { rate_per_sec : float }
  | Bursty of { rate_per_sec : float; on_ms : float; off_ms : float }

type sharding = { shards : int; partition : Paxi_shard.Partitioner.kind }

type client_spec = {
  region : Region.t option;
  count : int;
  target : target;
  arrival : arrival;
  workload : Workload.t;
}

let clients ?region ?(target = Nearest) ?(arrival = Closed) ~count workload =
  { region; count; target; arrival; workload }

type spec = {
  config : Config.t;
  topology : Topology.t;
  client_specs : client_spec list;
  warmup_ms : float;
  duration_ms : float;
  cooldown_ms : float;
  max_retries : int;
  collect_history : bool;
  check_consensus : bool;
  faults : (Faults.t -> unit) option;
  sharding : sharding option;
}

let spec ?(warmup_ms = 1_000.0) ?(duration_ms = 10_000.0)
    ?(cooldown_ms = 1_000.0) ?(max_retries = 10) ?(collect_history = false)
    ?(check_consensus = false) ?faults ?sharding ~config ~topology
    ~client_specs () =
  {
    config;
    topology;
    client_specs;
    warmup_ms;
    duration_ms;
    cooldown_ms;
    max_retries;
    collect_history;
    check_consensus;
    faults;
    sharding;
  }

type shard_stat = {
  shard_completed : int;
  shard_throughput_rps : float;
  shard_latency : Stats.t;
  shard_leader : int;
  shard_leader_busy_ms : float;
}

type result = {
  throughput_rps : float;
  latency : Stats.t;
  read_latency : Stats.t;
  write_latency : Stats.t;
  per_region : (Region.t * Stats.t) list;
  shard_stats : shard_stat array;
  completed : int;
  gave_up : int;
  history : Linearizability.op list;
  consensus_violations : Consensus_check.violation list;
  busiest_node_busy_ms : float;
  busiest_node : int;
  messages_sent : int;
  sim_events : int;
  sim_events_inlined : int;
  retransmits : int;
  dup_drops : int;
  recoveries : int;
  replay_ms_total : float;
  timers_cancelled : int;
  storage_writes : int;
  storage_fsyncs : int;
  storage_busy_ms : float;
  storage_lost_writes : int;
  allocated_bytes : float;
  bytes_per_event : float;
  trace : Paxi_obs.Trace.t;
}

let kind_of_op (op : Command.op) (read : Command.value option) =
  match op with
  | Command.Put (_, v) -> Linearizability.Write v
  | Command.Delete _ -> Linearizability.Del
  | Command.Get _ -> Linearizability.Read read

(* What [drive] needs from a deployment — one cluster or K sharded
   groups. The classic path wraps [Cluster.Make] with [shards = 1] and
   a constant route, so the driving loop below is shared verbatim and
   the unsharded event/draw sequence stays byte-identical to the
   pre-shard runner. *)
module type DEPLOY = sig
  type t

  val sim : t -> Sim.t
  val shards : t -> int
  val route : t -> key:int -> int
  val register_client : t -> id:int -> ?region:Region.t -> unit -> unit
  val nearest_replica : t -> shard:int -> client:int -> int

  val submit :
    t ->
    shard:int ->
    client:int ->
    target:int ->
    command:Command.t ->
    on_reply:(Proto.reply -> unit) ->
    unit

  val pending : t -> shard:int -> client:int -> command:Command.t -> bool
  val give_up : t -> shard:int -> client:int -> command:Command.t -> unit
  val set_window : t -> from_ms:float -> until_ms:float -> unit
  val trace : t -> Paxi_obs.Trace.t
  val consensus_violations : t -> Consensus_check.violation list
  val busiest : t -> int * float
  val shard_leader_load : t -> shard:int -> int * float
  val message_counts : t -> int * int * int
  val retransmit_counts : t -> int * int
  val recovery_counts : t -> int * float * int
  val storage_totals : t -> int * int * float * int
end

let drive (type d) (module D : DEPLOY with type t = d) (dep : d) spec =
  let sim = D.sim dep in
  let n = spec.config.Config.n_replicas in
  let nshards = D.shards dep in
  let window_start = spec.warmup_ms in
  let window_end = spec.warmup_ms +. spec.duration_ms in
  let horizon = window_end +. spec.cooldown_ms in
  D.set_window dep ~from_ms:window_start ~until_ms:window_end;
  let latency = Stats.create () in
  let read_latency = Stats.create () in
  let write_latency = Stats.create () in
  let shard_latency = Array.init nshards (fun _ -> Stats.create ()) in
  let shard_in_window = Array.make nshards 0 in
  let per_region : (Region.t * Stats.t) list ref = ref [] in
  let region_stats region =
    match List.find_opt (fun (r, _) -> Region.equal r region) !per_region with
    | Some (_, s) -> s
    | None ->
        let s = Stats.create () in
        per_region := (region, s) :: !per_region;
        s
  in
  let completed = ref 0 in
  let in_window = ref 0 in
  let gave_up = ref 0 in
  let history = ref [] in
  let next_client_id = ref 0 in
  let start_client cspec =
    let cid = !next_client_id in
    incr next_client_id;
    (match cspec.region with
    | Some region -> D.register_client dep ~id:cid ~region ()
    | None -> D.register_client dep ~id:cid ());
    let region = Topology.region_of spec.topology (Address.client cid) in
    (* [config.read_ratio] overrides every client's workload mix so a
       sweep can turn one knob; [None] leaves the specs untouched *)
    let workload =
      match spec.config.Config.read_ratio with
      | Some _ as r -> { cspec.workload with Workload.read_ratio = r }
      | None -> cspec.workload
    in
    let gen =
      Workload.generator workload ~rng:(Rng.split (Sim.rng sim)) ~client:cid
    in
    let rr = ref 0 in
    let pick_target ~shard ~attempt =
      match cspec.target with
      | Fixed r -> (r + attempt) mod n
      | Nearest ->
          if attempt = 0 then D.nearest_replica dep ~shard ~client:cid
          else (D.nearest_replica dep ~shard ~client:cid + attempt) mod n
      | Round_robin ->
          incr rr;
          (!rr + attempt) mod n
    in
    let op_counter = ref 0 in
    (* [issue ~continue] sends one command; [continue] fires once the
       command resolves (closed loop chains the next request there;
       open loop passes a no-op, pacing on an arrival clock instead). *)
    let issue ~continue =
      let now = Sim.now sim in
      if now < window_end then begin
        let id = !op_counter in
        incr op_counter;
        let op = Workload.next_op gen ~now_ms:now in
        let command = Command.make ~id ~client:cid op in
        (* routing is pure arithmetic: no RNG, no events *)
        let shard = D.route dep ~key:(Command.key command) in
        let invoked = now in
        let rec attempt_send attempt =
          (* The timeout event usually outlives the reply (it is never
             cancelled: that would change the event count), so its
             closure holds only this cell. The reply swaps in a no-op,
             releasing the command and both continuations; a timeout
             that fires after the reply found nothing pending anyway. *)
          let on_timeout = ref ignore in
          let on_reply (reply : Proto.reply) =
            on_timeout := ignore;
            let responded = Sim.now sim in
            incr completed;
            if invoked >= window_start && responded <= window_end then begin
              incr in_window;
              shard_in_window.(shard) <- shard_in_window.(shard) + 1;
              let l = responded -. invoked in
              Stats.add latency l;
              Stats.add
                (if Command.is_read command then read_latency else write_latency)
                l;
              Stats.add (region_stats region) l;
              Stats.add shard_latency.(shard) l
            end;
            if spec.collect_history then
              history :=
                {
                  Linearizability.client = cid;
                  op_id = id;
                  key = Command.key command;
                  kind = kind_of_op op reply.Proto.read;
                  invoked_ms = invoked;
                  responded_ms = responded;
                }
                :: !history;
            continue ()
          in
          (on_timeout :=
             fun () ->
               if D.pending dep ~shard ~client:cid ~command then
                 if attempt < spec.max_retries then attempt_send (attempt + 1)
                 else begin
                   D.give_up dep ~shard ~client:cid ~command;
                   incr gave_up;
                   continue ()
                 end);
          D.submit dep ~shard ~client:cid
            ~target:(pick_target ~shard ~attempt)
            ~command ~on_reply;
          ignore
          @@ Sim.schedule_after sim ~delay:spec.config.Config.client_timeout_ms
               (fun () -> !on_timeout ())
        in
        attempt_send 0
      end
    in
    let jitter = Rng.float (Sim.rng sim) 5.0 in
    match cspec.arrival with
    | Closed ->
        (* Stagger client start a little to avoid lock-step *)
        let rec closed_loop () = issue ~continue:closed_loop in
        ignore (Sim.schedule_at sim ~time:jitter (fun () -> closed_loop ()))
    | (Open _ | Bursty _) as arrival ->
        let rng = Rng.split (Sim.rng sim) in
        let rec tick () =
          if Sim.now sim < window_end then begin
            issue ~continue:(fun () -> ());
            let gap = Arrival.next_gap_ms arrival ~rng ~now_ms:(Sim.now sim) in
            ignore (Sim.schedule_after sim ~delay:gap tick)
          end
        in
        ignore (Sim.schedule_at sim ~time:jitter (fun () -> tick ()))
  in
  List.iter
    (fun cspec ->
      (match Arrival.validate cspec.arrival with
      | Ok () -> ()
      | Error e -> invalid_arg ("Runner.run: " ^ e));
      for _ = 1 to cspec.count do
        start_client cspec
      done)
    spec.client_specs;
  (* Allocation accounting brackets exactly the event loop: the delta
     divided by events fired is the hot path's bytes/event figure
     gated in CI. [Gc.allocated_bytes] is per-domain, and [run]
     executes wholly on one domain even under [run_many]'s pool. *)
  let alloc_before = Gc.allocated_bytes () in
  let events_before = Sim.events_fired sim in
  Sim.run_until sim horizon;
  let allocated_bytes = Gc.allocated_bytes () -. alloc_before in
  let loop_events = Sim.events_fired sim - events_before in
  let consensus_violations =
    if spec.check_consensus then D.consensus_violations dep else []
  in
  let busiest_node, busiest_node_busy_ms = D.busiest dep in
  let messages_sent, _, _ = D.message_counts dep in
  let retransmits, dup_drops = D.retransmit_counts dep in
  let recoveries, replay_ms_total, timers_cancelled = D.recovery_counts dep in
  let storage_writes, storage_fsyncs, storage_busy_ms, storage_lost_writes =
    D.storage_totals dep
  in
  let shard_stats =
    Array.init nshards (fun s ->
        let shard_leader, shard_leader_busy_ms =
          D.shard_leader_load dep ~shard:s
        in
        {
          shard_completed = shard_in_window.(s);
          shard_throughput_rps =
            float_of_int shard_in_window.(s) /. (spec.duration_ms /. 1000.0);
          shard_latency = shard_latency.(s);
          shard_leader;
          shard_leader_busy_ms;
        })
  in
  {
    throughput_rps = float_of_int !in_window /. (spec.duration_ms /. 1000.0);
    latency;
    read_latency;
    write_latency;
    per_region = List.rev !per_region;
    shard_stats;
    completed = !completed;
    gave_up = !gave_up;
    history = List.rev !history;
    consensus_violations;
    busiest_node_busy_ms;
    busiest_node;
    messages_sent;
    sim_events = Sim.events_fired sim;
    sim_events_inlined = Sim.events_inlined sim;
    retransmits;
    dup_drops;
    recoveries;
    replay_ms_total;
    timers_cancelled;
    storage_writes;
    storage_fsyncs;
    storage_busy_ms;
    storage_lost_writes;
    allocated_bytes;
    bytes_per_event = allocated_bytes /. float_of_int (max 1 loop_events);
    trace = D.trace dep;
  }

(* union of keys touched by any of the group's state machines *)
let touched_keys state_machines =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun (_, sm) ->
      List.iter
        (fun k -> if k >= 0 then Hashtbl.replace keys k ())
        (Kv.keys (State_machine.store sm)))
    state_machines;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []

let partitioner_of spec sh =
  (* the partitioned key space is the union of every client spec's
     declared key range; hash partitioning ignores the bounds *)
  let lo, hi =
    List.fold_left
      (fun (lo, hi) c ->
        ( Int.min lo c.workload.Workload.min_key,
          Int.max hi (c.workload.Workload.min_key + c.workload.Workload.keys) ))
      (max_int, min_int) spec.client_specs
  in
  let lo, hi = if lo > hi then (0, sh.shards) else (lo, hi) in
  Paxi_shard.Partitioner.make sh.partition ~shards:sh.shards ~min_key:lo
    ~keys:(hi - lo)

let run (module P : Proto.RUNNABLE) spec =
  match spec.sharding with
  | None ->
      let module C = Cluster.Make (P) in
      let faults = Faults.create () in
      (match spec.faults with Some install -> install faults | None -> ());
      let cluster =
        C.create ~faults ~config:spec.config ~topology:spec.topology ()
      in
      let n = spec.config.Config.n_replicas in
      let module D = struct
        type t = C.t

        let sim = C.sim
        let shards _ = 1
        let route _ ~key:_ = 0
        let register_client = C.register_client
        let nearest_replica c ~shard:_ ~client = C.nearest_replica c ~client
        let submit c ~shard:_ = C.submit c
        let pending c ~shard:_ = C.pending c
        let give_up c ~shard:_ = C.give_up c

        let set_window c ~from_ms ~until_ms =
          Paxi_obs.Trace.set_window (C.trace c) ~from_ms ~until_ms

        let trace = C.trace

        let consensus_violations c =
          let state_machines =
            List.init n (fun i ->
                (i, Executor.state_machine (P.executor (C.replica c i))))
          in
          Consensus_check.check ~state_machines
            ~keys:(touched_keys state_machines)

        let busiest c =
          let best = ref (0, 0.0) in
          for i = 0 to n - 1 do
            let b = C.replica_busy_ms c i in
            if b > snd !best then best := (i, b)
          done;
          !best

        let shard_leader_load c ~shard:_ = busiest c
        let message_counts = C.message_counts
        let retransmit_counts = C.retransmit_counts

        let recovery_counts c =
          (C.recoveries c, C.replay_ms_total c, C.timers_cancelled c)

        let storage_totals = C.storage_totals
      end in
      drive (module D) cluster spec
  | Some sh ->
      let module S = Paxi_shard.Shard.Make (P) in
      let faults = Faults.create () in
      (match spec.faults with Some install -> install faults | None -> ());
      let partitioner = partitioner_of spec sh in
      let t =
        S.create ~faults ~config:spec.config ~topology:spec.topology
          ~partitioner ()
      in
      let n = spec.config.Config.n_replicas in
      let module D = struct
        type t = S.t

        let sim = S.sim
        let shards = S.shards
        let route = S.route
        let register_client = S.register_client
        let nearest_replica = S.nearest_replica
        let submit = S.submit
        let pending = S.pending
        let give_up = S.give_up
        let set_window = S.set_window
        let trace t = S.trace t ~shard:0

        let consensus_violations t =
          List.concat
            (List.init (S.shards t) (fun shard ->
                 let state_machines =
                   List.init n (fun i ->
                       ( i,
                         Executor.state_machine
                           (P.executor (S.replica t ~shard i)) ))
                 in
                 Consensus_check.check ~state_machines
                   ~keys:(touched_keys state_machines)))

        let busiest t =
          let best = ref (0, 0.0) in
          for s = 0 to S.shards t - 1 do
            let i, b = S.busiest_in_shard t ~shard:s in
            if b > snd !best then best := (i, b)
          done;
          !best

        let shard_leader_load t ~shard = S.busiest_in_shard t ~shard
        let message_counts = S.message_counts
        let retransmit_counts = S.retransmit_counts

        (* sum per-group counters across the K co-located groups *)
        module C = Cluster.Make (P)

        let fold_groups t f init =
          let acc = ref init in
          for s = 0 to S.shards t - 1 do
            acc := f !acc (S.group t s)
          done;
          !acc

        let recovery_counts t =
          fold_groups t
            (fun (r, ms, tc) g ->
              ( r + C.recoveries g,
                ms +. C.replay_ms_total g,
                tc + C.timers_cancelled g ))
            (0, 0.0, 0)

        let storage_totals t =
          fold_groups t
            (fun (w, f, b, l) g ->
              let w', f', b', l' = C.storage_totals g in
              (w + w', f + f', b +. b', l + l'))
            (0, 0, 0.0, 0)
      end in
      drive (module D) t spec

(* Stable per-point seed, splittable from a fixed root: every
   experiment point owns a seed that depends only on the root and the
   point's identity, never on which domain runs it or in what order —
   the invariant that makes pooled sweeps byte-identical to
   sequential ones. (murmur-style finalizer, 30-bit output) *)
let derive_seed ~root index =
  let mix h =
    let h = h lxor (h lsr 16) in
    let h = h * 0x85EBCA6B land max_int in
    let h = h lxor (h lsr 13) in
    let h = h * 0xC2B2AE35 land max_int in
    h lxor (h lsr 16)
  in
  mix (mix (index + 0x9E3779B9) lxor root) land 0x3FFFFFFF

let run_many ?pool points =
  Paxi_exec.Parmap.map ?pool
    (fun ((p : (module Proto.RUNNABLE)), spec) -> run p spec)
    points

let saturation_sweep ?pool p ~make_spec ~concurrencies =
  let results =
    Paxi_exec.Parmap.map ?pool
      (fun c -> run p (make_spec ~concurrency:c))
      concurrencies
  in
  List.combine concurrencies results
