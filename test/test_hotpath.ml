(* Hot-path soundness: the collapsed-delivery fast path must be
   invisible to every measured statistic, and leader command batching
   must both stay safe and actually raise saturation throughput. *)

open Paxi_benchmark

let paxos = Paxi_protocols.Registry.find_exn "paxos"
let raft = Paxi_protocols.Registry.find_exn "raft"

let lan_spec ?batching ?retransmit ?(tracing = false) ?(seed = 7)
    ?(concurrency = 12) ?(duration_ms = 1_500.0) ?(collect_history = false)
    ?(check_consensus = false) () =
  let n = 5 in
  let config =
    {
      (Config.default ~n_replicas:n) with
      Config.seed;
      batching;
      retransmit;
      tracing;
    }
  in
  Runner.spec ~warmup_ms:300.0 ~duration_ms ~collect_history ~check_consensus
    ~config
    ~topology:(Topology.lan ~n_replicas:n ())
    ~client_specs:
      [
        Runner.clients ~target:(Runner.Fixed 0) ~count:concurrency
          { Workload.default with Workload.keys = 30 };
      ]
    ()

let with_inline_delivery v f =
  let saved = !Transport.inline_delivery in
  Transport.inline_delivery := v;
  Fun.protect ~finally:(fun () -> Transport.inline_delivery := saved) f

let with_pooling v f =
  let saved_rel = !Reliable.pooling
  and saved_tr = !Paxi_obs.Trace.pooling
  and saved_net = !Transport.pooling in
  Reliable.pooling := v;
  Paxi_obs.Trace.pooling := v;
  Transport.pooling := v;
  Fun.protect
    ~finally:(fun () ->
      Reliable.pooling := saved_rel;
      Paxi_obs.Trace.pooling := saved_tr;
      Transport.pooling := saved_net)
    f

(* The acceptance bar of this PR: a fixed-seed run with delivery
   collapse enabled is statistically byte-identical to the same run
   with every delivery going through the heap. *)
let test_inline_delivery_invisible () =
  let run inline =
    with_inline_delivery inline (fun () -> Runner.run paxos (lan_spec ()))
  in
  let off = run false and on = run true in
  Alcotest.(check int) "no inlining when disabled" 0
    off.Runner.sim_events_inlined;
  Alcotest.(check bool) "fast path actually taken" true
    (on.Runner.sim_events_inlined > 0);
  Alcotest.(check (float 0.0)) "throughput identical"
    off.Runner.throughput_rps on.Runner.throughput_rps;
  Alcotest.(check (float 0.0)) "mean latency identical"
    (Stats.mean off.Runner.latency)
    (Stats.mean on.Runner.latency);
  Alcotest.(check (float 0.0)) "max latency identical"
    (Stats.max off.Runner.latency)
    (Stats.max on.Runner.latency);
  Alcotest.(check int) "completed identical" off.Runner.completed
    on.Runner.completed;
  Alcotest.(check int) "messages identical" off.Runner.messages_sent
    on.Runner.messages_sent;
  Alcotest.(check int) "event totals identical" off.Runner.sim_events
    on.Runner.sim_events

(* The reliable-delivery substrate's acceptance bar: on a loss-free
   network every retransmission timer is cancelled by its ack before
   firing, so a fixed-seed run with the layer armed matches the
   disabled run on every statistic except the inline-delivery count
   (cancelled timer entries sitting in the heap can block
   [Sim.try_inline], which is exactly the one counter the collapse is
   allowed to vary). The recovery counters must also stay at zero. *)
let test_retransmit_inert_when_fault_free () =
  let retransmit =
    { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }
  in
  List.iter
    (fun (name, p) ->
      let off = Runner.run p (lan_spec ())
      and on = Runner.run p (lan_spec ~retransmit ()) in
      Alcotest.(check int) (name ^ ": zero retransmits") 0 on.Runner.retransmits;
      Alcotest.(check int) (name ^ ": zero dup drops") 0 on.Runner.dup_drops;
      Alcotest.(check (float 0.0))
        (name ^ ": throughput identical")
        off.Runner.throughput_rps on.Runner.throughput_rps;
      Alcotest.(check (float 0.0))
        (name ^ ": mean latency identical")
        (Stats.mean off.Runner.latency)
        (Stats.mean on.Runner.latency);
      Alcotest.(check (float 0.0))
        (name ^ ": max latency identical")
        (Stats.max off.Runner.latency)
        (Stats.max on.Runner.latency);
      Alcotest.(check int)
        (name ^ ": completed identical")
        off.Runner.completed on.Runner.completed;
      Alcotest.(check int)
        (name ^ ": messages identical")
        off.Runner.messages_sent on.Runner.messages_sent;
      Alcotest.(check int)
        (name ^ ": event totals identical")
        off.Runner.sim_events on.Runner.sim_events)
    [ ("paxos", paxos); ("raft", raft) ]

(* The tracing subsystem's acceptance bar: instrumentation only reads
   timestamps the simulator already computed — no extra randomness, no
   extra events — so a fixed-seed run with tracing on is statistically
   byte-identical to the same run with tracing off. *)
let test_tracing_invisible () =
  let off = Runner.run paxos (lan_spec ())
  and on = Runner.run paxos (lan_spec ~tracing:true ()) in
  Alcotest.(check (float 0.0)) "throughput identical"
    off.Runner.throughput_rps on.Runner.throughput_rps;
  Alcotest.(check (float 0.0)) "mean latency identical"
    (Stats.mean off.Runner.latency)
    (Stats.mean on.Runner.latency);
  Alcotest.(check (float 0.0)) "max latency identical"
    (Stats.max off.Runner.latency)
    (Stats.max on.Runner.latency);
  Alcotest.(check int) "completed identical" off.Runner.completed
    on.Runner.completed;
  Alcotest.(check int) "messages identical" off.Runner.messages_sent
    on.Runner.messages_sent;
  Alcotest.(check int) "event totals identical" off.Runner.sim_events
    on.Runner.sim_events;
  Alcotest.(check int) "inlined events identical"
    off.Runner.sim_events_inlined on.Runner.sim_events_inlined;
  (* and the traced run actually collected a dissection *)
  let tr = on.Runner.trace in
  Alcotest.(check bool) "trace disabled by default" false
    (Paxi_obs.Trace.enabled off.Runner.trace);
  Alcotest.(check bool) "spans collected" true
    (Paxi_obs.Trace.span_count tr > 0);
  Alcotest.(check bool) "components populated" true
    (List.for_all
       (fun (_, s) -> Stats.count s > 0)
       (Paxi_obs.Trace.components tr))

(* Unbatched runs must not notice that the batching machinery exists:
   same seed, batching = None, identical statistics run-to-run. *)
let test_fixed_seed_reproducible () =
  let r1 = Runner.run paxos (lan_spec ())
  and r2 = Runner.run paxos (lan_spec ()) in
  Alcotest.(check (float 0.0)) "throughput reproducible"
    r1.Runner.throughput_rps r2.Runner.throughput_rps;
  Alcotest.(check (float 0.0)) "latency reproducible"
    (Stats.mean r1.Runner.latency)
    (Stats.mean r2.Runner.latency);
  Alcotest.(check int) "events reproducible" r1.Runner.sim_events
    r2.Runner.sim_events

(* The pooling acceptance bar of this PR: recycling post records,
   retransmit thunks and trace request records must be invisible to
   every measured statistic. Run with retransmission armed and tracing
   on so both free lists are actually exercised. *)
let test_pooling_invisible () =
  let retransmit =
    { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }
  in
  let run pooled =
    with_pooling pooled (fun () ->
        Runner.run paxos (lan_spec ~retransmit ~tracing:true ()))
  in
  let on = run true and off = run false in
  Alcotest.(check (float 0.0)) "throughput identical"
    off.Runner.throughput_rps on.Runner.throughput_rps;
  Alcotest.(check (float 0.0)) "mean latency identical"
    (Stats.mean off.Runner.latency)
    (Stats.mean on.Runner.latency);
  Alcotest.(check (float 0.0)) "max latency identical"
    (Stats.max off.Runner.latency)
    (Stats.max on.Runner.latency);
  Alcotest.(check int) "completed identical" off.Runner.completed
    on.Runner.completed;
  Alcotest.(check int) "messages identical" off.Runner.messages_sent
    on.Runner.messages_sent;
  Alcotest.(check int) "event totals identical" off.Runner.sim_events
    on.Runner.sim_events;
  Alcotest.(check int) "inlined events identical"
    off.Runner.sim_events_inlined on.Runner.sim_events_inlined;
  Alcotest.(check int) "retransmits identical" off.Runner.retransmits
    on.Runner.retransmits;
  Alcotest.(check int) "span counts identical"
    (Paxi_obs.Trace.span_count off.Runner.trace)
    (Paxi_obs.Trace.span_count on.Runner.trace)

(* Allocation-regression pin. The zero-alloc overhaul halved the Paxos
   LAN event loop's allocation rate; per-replica template trackers
   ([Quorum.fresh]) then took the per-proposal member-list rebuild off
   the leader's path, bringing this scenario from 472 to ~431
   bytes/event (what remains is dominated by the protocol message
   values themselves, which are real data, not hot-path machinery).
   The band is ~1.25x the measured figure: loose enough to absorb GC
   accounting noise and scenario drift, tight enough that rebuilding
   trackers from the spec per proposal, or reintroducing boxed-float
   returns or per-message closures on the delivery path (which cost
   100+ bytes/event last time), trips it. *)
let bytes_per_event_cap = 540.0

let test_allocation_per_event_pinned () =
  let r = Runner.run paxos (lan_spec ()) in
  Alcotest.(check bool)
    (Printf.sprintf "bytes/event %.1f <= %.0f" r.Runner.bytes_per_event
       bytes_per_event_cap)
    true
    (r.Runner.bytes_per_event <= bytes_per_event_cap);
  (* retransmission armed on a loss-free run must not change the
     allocation class: every post recycles through the free list *)
  let retransmit =
    { Config.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }
  in
  let rr = Runner.run paxos (lan_spec ~retransmit ()) in
  Alcotest.(check bool)
    (Printf.sprintf "armed bytes/event %.1f <= %.0f" rr.Runner.bytes_per_event
       (2.0 *. bytes_per_event_cap))
    true
    (rr.Runner.bytes_per_event <= 2.0 *. bytes_per_event_cap)

(* Retained-memory pin. Paxos with its replicas remembered, so that
   after a run the test can weigh everything they reach: the whole
   cluster (logs, executors, pending table), its simulator and the
   event queue with the clients' outstanding timeouts. *)
let remembered : Paxi_protocols.Paxos.replica list ref = ref []

module Remembered_paxos = struct
  include Paxi_protocols.Paxos

  let create env =
    let r = create env in
    remembered := r :: !remembered;
    r
end

(* The LAN fixed point (9 replicas, 32 closed-loop round-robin clients
   on the default workload, 300 ms warm-up + 1 s) with a client
   timeout longer than the run, so every operation's timeout event is
   still queued when the run ends. No operation retries either way. *)
let fixed_point_spec () =
  let n = 9 in
  Runner.spec ~warmup_ms:300.0 ~duration_ms:1_000.0
    ~config:
      {
        (Config.default ~n_replicas:n) with
        Config.seed = 1;
        client_timeout_ms = 6_000.0;
      }
    ~topology:(Topology.lan ~n_replicas:n ())
    ~client_specs:
      [ Runner.clients ~target:Runner.Round_robin ~count:32 Workload.default ]
    ()

let retained_words_per_op () =
  remembered := [];
  let r = Runner.run (module Remembered_paxos) (fixed_point_spec ()) in
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr !remembered) in
  remembered := [];
  float_of_int words /. float_of_int (max 1 r.Runner.completed)

(* What the replicas legitimately keep per committed op, summed over
   the nine (DESIGN.md §10, "Memory lifetime"), measured at 92.0
   words/op (OCaml 5.1, 64-bit): ~19 in the executed-log columns (a
   command pointer and a ballot pointer per slot, plus the partly
   filled last chunk), ~18 in the executors' read values (one unboxed
   int per read that found a value, in a hash bucket), ~1.4 in their
   executed-uid bitmaps (one bit per command, 32 of a client's ids per
   table entry), ~16 in the KV stores (one writer pointer per version,
   plus per-key chains), ~14 in the applied sequences, ~6.5 for the
   command itself (shared by every replica) and ~17 for the rest of
   the cluster, mostly each client's queued timeout event. Per-op
   state that is already dead must not be retained: a memo entry per
   command (a uid-keyed hash table of results) adds 26.7, keeping
   executed slots as boxed entries in a grow-only array ~86, a
   list-backed KV chain (cons + record + option per version) ~27, and
   letting each timeout closure pin its command and continuations
   ~46. Unlike bytes/event this figure has no GC-accounting noise —
   a fixed-seed run reaches exactly the same graph every time — so
   the band is ~1.1x, which each regression above exceeds. *)
let retained_words_per_op_cap = 101.0

let test_retained_memory_pinned () =
  let w = retained_words_per_op () in
  Alcotest.(check bool)
    (Printf.sprintf "retained words/op %.1f <= %.0f" w retained_words_per_op_cap)
    true
    (w <= retained_words_per_op_cap)

(* Client retry semantics. A lossy client link and a short timeout
   make clients retry and give up; the counts, the event total and the
   history must stay exactly what they were when every timeout closure
   still held its command, so the thin closure changes lifetime only,
   never behaviour. *)
let test_client_retry_semantics_pinned () =
  let n = 3 in
  let lossy f =
    let r0 = Address.replica 0 in
    let c0 = Address.client 0 and c1 = Address.client 1 in
    List.iter
      (fun (src, dst) ->
        Faults.flaky f ~src ~dst ~from_ms:0.0 ~duration_ms:10_000.0 ~p_drop:0.3)
      [ (c0, r0); (r0, c0); (c1, r0); (r0, c1) ]
  in
  let spec =
    Runner.spec ~warmup_ms:100.0 ~duration_ms:600.0 ~max_retries:2
      ~collect_history:true ~faults:lossy
      ~config:
        {
          (Config.default ~n_replicas:n) with
          Config.seed = 11;
          client_timeout_ms = 15.0;
        }
      ~topology:(Topology.lan ~n_replicas:n ())
      ~client_specs:
        [
          Runner.clients ~target:(Runner.Fixed 0) ~count:4
            { Workload.default with Workload.keys = 20 };
        ]
      ()
  in
  let r = Runner.run paxos spec in
  let kind = function
    | Linearizability.Write v -> Printf.sprintf "w%d" v
    | Linearizability.Del -> "d"
    | Linearizability.Read None -> "r-"
    | Linearizability.Read (Some v) -> Printf.sprintf "r%d" v
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (o : Linearizability.op) ->
                 Printf.sprintf "%d,%d,%d,%s,%h,%h" o.Linearizability.client
                   o.op_id o.key (kind o.kind) o.invoked_ms o.responded_ms)
               r.Runner.history)))
  in
  Alcotest.(check int) "completed" 1635 r.Runner.completed;
  Alcotest.(check int) "gave up" 11 r.Runner.gave_up;
  Alcotest.(check int) "events" 22156 r.Runner.sim_events;
  Alcotest.(check string) "history digest" "de254016112f8a41a16eb440fe54afed"
    digest

let check_safe name (r : Runner.result) =
  let anomalies = Linearizability.check r.Runner.history in
  List.iter
    (fun a -> Printf.printf "%s anomaly: %s\n" name a.Linearizability.reason)
    anomalies;
  Alcotest.(check int) (name ^ " linearizable") 0 (List.length anomalies);
  Alcotest.(check int)
    (name ^ " consensus clean")
    0
    (List.length r.Runner.consensus_violations);
  Alcotest.(check int) (name ^ " nothing abandoned") 0 r.Runner.gave_up

let batching = { Config.max_batch = 8; max_wait_ms = 0.2 }

let test_batched_paxos_safe () =
  let r =
    Runner.run paxos
      (lan_spec ~batching ~collect_history:true ~check_consensus:true ())
  in
  Alcotest.(check bool) "made progress" true (r.Runner.throughput_rps > 100.0);
  check_safe "batched paxos" r

let test_batched_raft_safe () =
  let r =
    Runner.run raft
      (lan_spec ~batching ~collect_history:true ~check_consensus:true ())
  in
  Alcotest.(check bool) "made progress" true (r.Runner.throughput_rps > 100.0);
  check_safe "batched raft" r

let test_batched_fpaxos_safe () =
  let fpaxos = Paxi_protocols.Registry.find_exn "fpaxos" in
  let r =
    Runner.run fpaxos
      (lan_spec ~batching ~collect_history:true ~check_consensus:true ())
  in
  Alcotest.(check bool) "made progress" true (r.Runner.throughput_rps > 100.0);
  check_safe "batched fpaxos" r

(* A lone slow client never fills a batch: the max_wait timer must
   flush for it, and every command still gets its own reply. *)
let test_max_wait_flushes_partial_batch () =
  let module P = (val paxos) in
  let module H = Proto_harness.Make (P) in
  let t =
    H.lan
      ~config:
        {
          (Config.default ~n_replicas:3) with
          Config.batching = Some { Config.max_batch = 64; max_wait_ms = 1.0 };
        }
      ~n:3 ()
  in
  let replies =
    H.submit_seq t
      (List.init 5 (fun i -> Command.Put (i, 100 + i)))
  in
  Alcotest.(check int) "every command replied" 5 (List.length replies);
  H.run_for t 50.0;
  H.assert_consistent t;
  Alcotest.(check int) "all five applied at the leader" 5
    (List.length (H.applied_commands t 0))

(* The point of batching (§6 capacity lever): amortizing t_in/t_out
   across a batch raises the leader's saturation throughput. At equal
   service-time parameters a max_batch=8 leader must clear >= 1.5x the
   unbatched saturation throughput. *)
let test_batching_raises_saturation () =
  let sat batching =
    (Runner.run paxos
       (lan_spec ?batching ~concurrency:32 ~duration_ms:2_000.0 ()))
      .Runner.throughput_rps
  in
  let plain = sat None in
  let batched = sat (Some { Config.max_batch = 8; max_wait_ms = 0.05 }) in
  Alcotest.(check bool)
    (Printf.sprintf "batched %.0f >= 1.5x unbatched %.0f rps" batched plain)
    true
    (batched >= 1.5 *. plain)

let suite =
  ( "hotpath",
    [
      Alcotest.test_case "inline delivery invisible" `Slow
        test_inline_delivery_invisible;
      Alcotest.test_case "retransmission inert when fault-free" `Slow
        test_retransmit_inert_when_fault_free;
      Alcotest.test_case "fixed seed reproducible" `Slow
        test_fixed_seed_reproducible;
      Alcotest.test_case "tracing invisible" `Slow test_tracing_invisible;
      Alcotest.test_case "pooling invisible" `Slow test_pooling_invisible;
      Alcotest.test_case "allocation per event pinned" `Slow
        test_allocation_per_event_pinned;
      Alcotest.test_case "retained memory pinned" `Slow
        test_retained_memory_pinned;
      Alcotest.test_case "client retry semantics pinned" `Slow
        test_client_retry_semantics_pinned;
      Alcotest.test_case "batched paxos safe" `Slow test_batched_paxos_safe;
      Alcotest.test_case "batched raft safe" `Slow test_batched_raft_safe;
      Alcotest.test_case "batched fpaxos safe" `Slow test_batched_fpaxos_safe;
      Alcotest.test_case "max_wait flushes partial batch" `Quick
        test_max_wait_flushes_partial_batch;
      Alcotest.test_case "batching raises saturation" `Slow
        test_batching_raises_saturation;
    ] )
