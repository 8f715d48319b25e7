(* The benchmark's workloads: what each one deploys, and one run of it
   reduced to the numbers the benchmark reports and checks.

   - lan_paxos: the historical fixed point of the old perf guard —
     paxos, 9 replicas on one LAN, 32 closed-loop round-robin clients
     on the paper's 1000-key 50%-write workload, no faults, storage,
     retransmission or batching. Host time goes to the event heap,
     transport/queues, quorum tracking and the replicated log.
   - shard_lease_durable: raft in 4 hash-partitioned groups of 3,
     16 open-loop Poisson processes offering 40k ops/s in total, 90%
     reads served off the log by leader leases, group-committed
     (Sync_batched) storage with snapshots. Reads skip the log, quorum
     and storage; writes pay for group commit.
   - nemesis_all: one generated fault schedule per protocol (nine of
     the ten, see [nemesis_protocols]; one root seed, at most 4 faults,
     no clock skew), retransmission
     armed, paxos/fpaxos/raft on durable storage so their crashes are
     real, and the nemesis oracle (linearizability, consensus,
     liveness, progress) judging every trial. The schedules come from
     a fixed root seed and the benchmark seed drives the clusters: with
     one schedule per protocol, a per-seed schedule would make the
     fault windows, not the code, set every figure of the run. *)

open Paxi_benchmark
module Schedule = Paxi_nemesis.Schedule
module Trial = Paxi_nemesis.Trial

type kind = Lan_paxos | Shard_lease_durable | Nemesis_all

let all =
  [
    ("lan_paxos", Lan_paxos);
    ("shard_lease_durable", Shard_lease_durable);
    ("nemesis_all", Nemesis_all);
  ]

(* How a run is instrumented. [checked] collects the operation history
   and runs the offline checkers; the timed runs of the fault-free
   workloads leave it off. *)
type mode = { tracing : bool; checked : bool }

let timed = { tracing = false; checked = false }

(* One simulated deployment and what became of it. *)
type trial = {
  protocol : string;
  result : Runner.result;
  window : float * float;  (** measured virtual window, ms *)
  n : int;  (** replicas per group *)
  problems : string list;  (** oracle findings; [] when ok or unchecked *)
  run_s : float;  (** wall time of [Runner.run] *)
  check_s : float;  (** wall time of the offline checkers *)
  peak_heap_words : int;  (** largest major heap during the trial *)
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let runnable name = Paxi_protocols.Registry.find_exn name

(* ------------------------------------------------------------------ *)
(* Deployments                                                         *)
(* ------------------------------------------------------------------ *)

let lan_warmup_ms = 300.0
let lan_duration_ms = 1_000.0
let lan_clients = 32

let lan_spec ?(n = 9) ~warmup_ms ~duration_ms ~seed mode =
  let config =
    { (Config.default ~n_replicas:n) with Config.seed; tracing = mode.tracing }
  in
  Runner.spec ~warmup_ms ~duration_ms ~collect_history:mode.checked
    ~check_consensus:mode.checked ~config
    ~topology:(Topology.lan ~n_replicas:n ())
    ~client_specs:
      [
        Runner.clients ~target:Runner.Round_robin ~count:lan_clients
          Workload.default;
      ]
    ()

let shard_groups = 4
let shard_group_n = 3
let shard_processes = 16
let shard_offered_rps = 40_000.0
let shard_warmup_ms = 300.0
let shard_duration_ms = 1_000.0

let shard_storage =
  {
    Storage.default_config with
    Storage.sync_mode = Storage.Sync_batched;
    snapshot_threshold = 1_000;
  }

let shard_spec ~seed mode =
  let config =
    {
      (Config.default ~n_replicas:shard_group_n) with
      Config.seed;
      tracing = mode.tracing;
      read_ratio = Some 0.9;
      read_path = Some (Config.Lease { margin_ms = 300.0 });
      storage = Some shard_storage;
      (* longer than the run, so a queueing spike shows as latency
         rather than as a retry storm *)
      client_timeout_ms = 6_000.0;
    }
  in
  let per_process = shard_offered_rps /. float_of_int shard_processes in
  Runner.spec ~warmup_ms:shard_warmup_ms ~duration_ms:shard_duration_ms
    ~collect_history:mode.checked ~check_consensus:mode.checked
    ~sharding:{ Runner.shards = shard_groups; partition = `Hash }
    ~config
    ~topology:(Topology.lan ~n_replicas:shard_group_n ())
    ~client_specs:
      [
        Runner.clients ~target:(Runner.Fixed 0)
          ~arrival:(Runner.Open { rate_per_sec = per_process })
          ~count:shard_processes Workload.default;
      ]
    ()

(* The nemesis trial deployment, as [Paxi_nemesis.Trial.run] builds it,
   rebuilt here so the benchmark sees the whole runner result (latency,
   counts, history) and times the install and the checker itself. *)
(* wpaxos is left out: its replicas diverge (consensus check) under
   message loss — a flaky and a dropped link, no crash — on about one
   cluster seed in ten, which is a protocol defect, not noise. Put it
   back when that is fixed. *)
let nemesis_protocols =
  List.filter (fun p -> p <> "wpaxos") Paxi_protocols.Registry.names

let nemesis_max_faults = 4
let nemesis_schedule_seed = 42
let nemesis_warmup_ms = 200.0
let nemesis_recovery_ms = 4_500.0
let durable_protocols = [ "paxos"; "fpaxos"; "raft" ]

let nemesis_durable =
  { Storage.default_config with Storage.sync_mode = Storage.Sync_batched }

let zones = [ "az-a"; "az-b"; "az-c" ]

let nemesis_topology (p : Trial.profile) =
  if p.Trial.zoned then
    Topology.custom
      ~replica_regions:
        (List.concat_map
           (fun z -> List.init (p.Trial.n / 3) (fun _ -> Region.make z))
           zones)
      ~rtt_ms:(fun _ _ -> 0.4271)
      ~jitter:0.02 ()
  else Topology.lan ~n_replicas:p.Trial.n ()

let nemesis_clients (p : Trial.profile) =
  let workload = { Workload.default with Workload.keys = 15 } in
  if p.Trial.zoned then
    List.map
      (fun z ->
        Runner.clients ~region:(Region.make z) ~target:Runner.Round_robin
          ~count:1 workload)
      zones
  else [ Runner.clients ~target:Runner.Round_robin ~count:3 workload ]

let nemesis_spec ~protocol ~seed ~tracing schedule =
  let profile = Trial.profile_of protocol in
  let n = profile.Trial.n in
  let config =
    {
      (Config.default ~n_replicas:n) with
      Config.seed;
      tracing;
      storage =
        (if List.mem protocol durable_protocols then Some nemesis_durable
         else None);
      retransmit =
        Some { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 };
    }
  in
  let duration_ms =
    Float.max 1_500.0
      (Schedule.end_ms schedule +. nemesis_recovery_ms -. nemesis_warmup_ms)
  in
  let install faults =
    Spans.around ~cat:"nemesis" ("Schedule.install " ^ protocol) (fun () ->
        Schedule.install schedule ~n faults)
  in
  ( profile,
    Runner.spec ~warmup_ms:nemesis_warmup_ms ~duration_ms ~cooldown_ms:2_000.0
      ~collect_history:true ~check_consensus:profile.Trial.global_consensus
      ~faults:install ~config
      ~topology:(nemesis_topology profile)
      ~client_specs:(nemesis_clients profile)
      () )

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let linearizability_problems ~protocol (r : Runner.result) =
  let anomalies =
    Spans.around ~cat:"benchmark" ("Linearizability.check " ^ protocol)
      (fun () -> Linearizability.check r.Runner.history)
  in
  let lin =
    match anomalies with
    | [] -> []
    | a :: _ ->
        [
          Printf.sprintf "%d linearizability anomalies (first: %s)"
            (List.length anomalies) a.Linearizability.reason;
        ]
  in
  let cons =
    match r.Runner.consensus_violations with
    | [] -> []
    | v :: _ ->
        [
          Fmt.str "%d consensus divergences (first: %a)"
            (List.length r.Runner.consensus_violations)
            Consensus_check.pp_violation v;
        ]
  in
  lin @ cons

(* The fault-free workloads must complete every operation they start
   and pass both offline checkers. *)
let fault_free_problems ~protocol (r : Runner.result) =
  linearizability_problems ~protocol r
  @ (if r.Runner.completed = 0 then [ "no operation completed" ] else [])
  @
  if r.Runner.gave_up > 0 then
    [ Printf.sprintf "%d operations gave up" r.Runner.gave_up ]
  else []

(* The nemesis oracle: safety (linearizable, consistent replicas),
   progress (something completed) and liveness (an operation invoked
   after the last fault lifted completed). *)
let oracle_problems ~protocol schedule (r : Runner.result) =
  let fault_end = Schedule.end_ms schedule in
  linearizability_problems ~protocol r
  @
  if r.Runner.completed = 0 then [ "no operation ever completed" ]
  else if
    schedule <> []
    && not
         (List.exists
            (fun (op : Linearizability.op) ->
              op.Linearizability.invoked_ms >= fault_end)
            r.Runner.history)
  then
    [
      Printf.sprintf "no operation invoked after the last fault (%.0fms) \
                      completed"
        fault_end;
    ]
  else []

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let workload_seed kind ~seed =
  let tag = fst (List.find (fun (_, k) -> k = kind) all) in
  Runner.derive_seed ~root:seed (Hashtbl.hash tag)

let run_spec ~protocol spec =
  let (module P) = runnable protocol in
  Spans.around ~cat:"runner" ("Runner.run " ^ protocol) (fun () ->
      Runner.run (module P) spec)

(* Largest major heap seen since the last reset, sampled at the end of
   every major GC cycle. *)
let heap_peak = ref 0
let heap_words () = (Gc.quick_stat ()).Gc.heap_words
let () = ignore (Gc.create_alarm (fun () -> heap_peak := max !heap_peak (heap_words ())))

(* Each trial starts from a collected heap (outside its timing), so
   its host time and peak heap do not depend on what ran before. *)
let trial ~protocol ~n (spec : Runner.spec) check =
  Gc.compact ();
  heap_peak := heap_words ();
  let result, run_s = time (fun () -> run_spec ~protocol spec) in
  let problems, check_s = time (fun () -> check result) in
  let w0 = spec.Runner.warmup_ms in
  {
    protocol;
    result;
    window = (w0, w0 +. spec.Runner.duration_ms);
    n;
    problems;
    run_s;
    check_s;
    peak_heap_words = max !heap_peak (heap_words ());
  }

let fault_free_trial ~protocol ~n spec mode =
  trial ~protocol ~n spec (fun r ->
      if mode.checked then fault_free_problems ~protocol r else [])

let nemesis_schedule protocol =
  Trial.generate ~protocol ~seed:nemesis_schedule_seed
    ~max_faults:nemesis_max_faults ()

let nemesis_trial ~seed ~tracing protocol =
  let schedule = nemesis_schedule protocol in
  let profile, spec = nemesis_spec ~protocol ~seed ~tracing schedule in
  trial ~protocol ~n:profile.Trial.n spec (oracle_problems ~protocol schedule)

(* Every nemesis trial is judged by the oracle, timed or not: the
   checker's host time is part of what this workload measures. *)
let always_checked = function Nemesis_all -> true | _ -> false

(* stall_ms segments: a nemesis trial's whole window is one segment
   (its longest gap is the stall its faults caused); a fault-free
   window is cut into 50 ms slices, so the mean is over many slices
   rather than one extreme. *)
let stall_segment_ms = function Nemesis_all -> None | _ -> Some 50.0

let run kind ~seed mode =
  let seed = workload_seed kind ~seed in
  match kind with
  | Lan_paxos ->
      [
        fault_free_trial ~protocol:"paxos" ~n:9
          (lan_spec ~warmup_ms:lan_warmup_ms ~duration_ms:lan_duration_ms
             ~seed mode)
          mode;
      ]
  | Shard_lease_durable ->
      [
        fault_free_trial ~protocol:"raft" ~n:shard_group_n
          (shard_spec ~seed mode) mode;
      ]
  | Nemesis_all ->
      List.map
        (nemesis_trial ~seed ~tracing:mode.tracing)
        nemesis_protocols

(* Set-up: everything a run does before its first event fires — fault
   schedule generation, cluster and client construction — measured by
   running each deployment to a horizon before any client starts. *)
let setup kind ~seed =
  let seed = workload_seed kind ~seed in
  let empty (spec : Runner.spec) =
    { spec with Runner.warmup_ms = 0.0; duration_ms = 1e-6; cooldown_ms = 0.0 }
  in
  match kind with
  | Lan_paxos ->
      ignore
        (run_spec ~protocol:"paxos"
           (empty
              (lan_spec ~warmup_ms:lan_warmup_ms ~duration_ms:lan_duration_ms
                 ~seed timed)))
  | Shard_lease_durable ->
      ignore (run_spec ~protocol:"raft" (empty (shard_spec ~seed timed)))
  | Nemesis_all ->
      List.iter
        (fun protocol ->
          let _, spec =
            nemesis_spec ~protocol ~seed ~tracing:false
              (nemesis_schedule protocol)
          in
          ignore (run_spec ~protocol (empty spec)))
        nemesis_protocols
