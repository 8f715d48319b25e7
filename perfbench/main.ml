(* The repository's benchmark. One invocation runs one workload
   (see workloads.ml) in this process, on one domain:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   It first checks that it drives the same simulator as the old perf
   guard (the lan_paxos continuity point), measures set-up, runs one
   untimed warm-up run, then repeats the workload's run at the same
   seed for S seconds of host time with tracing off. Every repeat must
   reproduce the warm-up's virtual-time metrics and counts exactly.
   The fault-free workloads then run once more with the operation
   history collected and the offline checkers on; nemesis_all checks
   every run.

   --trace 0 reports the end-to-end metrics: what a user of the
   simulated cluster sees (virtual-time throughput and latency) and
   what a user of the simulator sees (set-up time, heap).
   --trace 1 adds traced runs, a 1-replica baseline, the layer
   micro-benchmarks and the host-cost composition, reports the
   per-layer metrics, and writes the host spans of the benchmark's
   calls into each layer to .perfbench_out/<workload>.trace.json.

   Human-readable lines go to stdout first; the last stdout line is
   one JSON object {correct, attempted, failed, metrics}. The exit
   code is 1 when a check fails and 2 on a bad command line. *)

open Paxi_benchmark
module W = Workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload lan_paxos|shard_lease_durable|nemesis_all \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_of v = match int_of_string_opt v with Some i -> i | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.assoc_opt v W.all with
        | Some k -> workload := Some (v, k)
        | None -> usage ());
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of v);
        go rest
    | "--seconds" :: v :: rest ->
        let s = int_of v in
        if s < 1 then usage ();
        seconds := Some s;
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := Some false
        | "1" -> trace := Some true
        | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace -> (w, seed, seconds, trace)
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* On a shared machine the same run's host time drifts between levels
   up to ~1.7x apart, in phases from seconds to minutes long (load from
   other tenants on the same cores). Interference only ever adds time,
   so the fastest of many repeats reads the program's own cost; a
   median follows whichever phases a run lands in. A phase can outlast
   a whole run, so even the fastest repeat of one run differs from
   another run's by up to 25%: host_ops_per_s is therefore reported as
   a per-layer metric, with no bound. *)
let fastest xs = List.fold_left Float.min Float.infinity xs

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let mean_over f xs = ratio (fsum f xs) (float_of_int (List.length xs))
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let problems = ref []
let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* Repeat [f] until [seconds] of host time have passed, at least
   [min_reps] times. *)
let repeat ~seconds ~min_reps f =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go acc =
    let acc = f () :: acc in
    if List.length acc >= min_reps && Unix.gettimeofday () >= deadline then
      List.rev acc
    else go acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Reducing a run to its metrics                                       *)
(* ------------------------------------------------------------------ *)

let results (trials : W.trial list) = List.map (fun t -> t.W.result) trials

let merged f trials =
  List.fold_left
    (fun acc t -> Stats.merge acc (f t.W.result))
    (Stats.create ()) trials

let completed trials = isum (fun r -> r.Runner.completed) (results trials)
let gave_up trials = isum (fun r -> r.Runner.gave_up) (results trials)
let events trials = isum (fun r -> r.Runner.sim_events) (results trials)

(* Host seconds of one run of the workload, from timed repeats: per
   trial, the fastest of its run-plus-check times, summed. *)
let host_s ?(part = fun t -> t.W.run_s +. t.W.check_s) reps =
  List.mapi
    (fun i _ -> fastest (List.map (fun r -> part (List.nth r i)) reps))
    (List.hd reps)
  |> fsum Fun.id

(* Completed ops per virtual second of measured window, over all
   trials. *)
let sim_throughput trials =
  let window t = (snd t.W.window -. fst t.W.window) /. 1000.0 in
  ratio
    (fsum (fun t -> t.W.result.Runner.throughput_rps *. window t) trials)
    (fsum window trials)

(* Longest virtual gap between consecutive completions, averaged over
   segments of each trial's measured window (see
   [Workloads.stall_segment_ms]). *)
let stall_ms ~segment_ms trials =
  let gaps =
    List.concat_map
      (fun t ->
        let w0, w1 = t.W.window in
        let times =
          List.filter_map
            (fun (op : Linearizability.op) ->
              let r = op.Linearizability.responded_ms in
              if r >= w0 && r <= w1 then Some r else None)
            t.W.result.Runner.history
          |> Array.of_list
        in
        Array.sort Float.compare times;
        let seg = Option.value segment_ms ~default:(w1 -. w0) in
        let nseg = max 1 (int_of_float (Float.ceil ((w1 -. w0) /. seg))) in
        let longest = Array.make nseg 0.0 in
        for i = 1 to Array.length times - 1 do
          let s = min (nseg - 1) (int_of_float ((times.(i) -. w0) /. seg)) in
          longest.(s) <- Float.max longest.(s) (times.(i) -. times.(i - 1))
        done;
        Array.to_list longest)
      trials
  in
  mean_over Fun.id gaps

(* Everything that must repeat exactly at a fixed seed: virtual-time
   metrics and counts. *)
let fingerprint trials =
  let rs = results trials in
  let lat = merged (fun r -> r.Runner.latency) trials in
  let i f = float_of_int (isum f rs) in
  [
    ("sim_throughput_rps", sim_throughput trials);
    ("sim_p50_ms", Stats.median lat);
    ("sim_p99_ms", Stats.percentile lat 99.0);
    ("latency_samples", float_of_int (Stats.count lat));
    ("read_p50_ms", Stats.median (merged (fun r -> r.Runner.read_latency) trials));
    ("write_p50_ms", Stats.median (merged (fun r -> r.Runner.write_latency) trials));
    ("completed", i (fun r -> r.Runner.completed));
    ("gave_up", i (fun r -> r.Runner.gave_up));
    ("sim_events", i (fun r -> r.Runner.sim_events));
    ("sim_events_inlined", i (fun r -> r.Runner.sim_events_inlined));
    ("messages_sent", i (fun r -> r.Runner.messages_sent));
    ("retransmits", i (fun r -> r.Runner.retransmits));
    ("storage_writes", i (fun r -> r.Runner.storage_writes));
    ("storage_fsyncs", i (fun r -> r.Runner.storage_fsyncs));
    ("storage_busy_ms", fsum (fun r -> r.Runner.storage_busy_ms) rs);
    ("recoveries", i (fun r -> r.Runner.recoveries));
    ("replay_ms_total", fsum (fun r -> r.Runner.replay_ms_total) rs);
  ]

let check_same ~what reference trials =
  List.iter2
    (fun (k, x) (_, y) ->
      if not (Float.equal x y) then
        fail "%s: %s is %.17g, the warm-up run gave %.17g" what k y x)
    reference (fingerprint trials)

let record_problems trials =
  List.iter
    (fun t ->
      List.iter (fun p -> fail "%s: %s" t.W.protocol p) t.W.problems)
    trials

(* ------------------------------------------------------------------ *)
(* Continuity with the old perf guard                                  *)
(* ------------------------------------------------------------------ *)

(* The old guard's quick fixed point (300 ms warm-up + 1 s, seed
   point_seed ("lan", "paxos", 32)) and what BENCH_pr7.json recorded
   for it. *)
let continuity_seed = Runner.derive_seed ~root:42 (Hashtbl.hash ("lan", "paxos", 32))
let continuity_events = 399279
let continuity_rps = 7864.0

let continuity () =
  let spec =
    W.lan_spec ~warmup_ms:300.0 ~duration_ms:1_000.0 ~seed:continuity_seed
      W.timed
  in
  let r = W.run_spec ~protocol:"paxos" spec in
  if r.Runner.sim_events <> continuity_events
     || r.Runner.throughput_rps <> continuity_rps
  then
    fail
      "continuity: the old guard's lan point gave %d events at %.0f rps, \
       expected %d at %.0f"
      r.Runner.sim_events r.Runner.throughput_rps continuity_events
      continuity_rps;
  r

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let print_result ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then fail "metric %s is not finite" name)
    ms;
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %.6g %s\n" name v unit) ms;
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev !problems);
  let correct = !problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
              (if Float.is_finite v then v else 0.0)
              unit)
          ms));
  correct

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (--trace 1)                                       *)
(* ------------------------------------------------------------------ *)

let trace_of t = t.W.result.Runner.trace

(* Mean of a latency-dissection component, pooled over trials (0 when
   no trial's protocol reports that component). *)
let component trials name =
  let pooled =
    List.fold_left
      (fun acc t ->
        match List.assoc_opt name (Paxi_obs.Trace.components (trace_of t)) with
        | Some s -> Stats.merge acc s
        | None -> acc)
      (Stats.create ()) trials
  in
  if Stats.count pooled = 0 then 0.0 else Stats.mean pooled

(* A sharded run traces only group 0; its fast-read count is scaled up
   by group 0's share of the in-window completions. *)
let fast_reads t =
  let ss = t.W.result.Runner.shard_stats in
  let total = Array.fold_left (fun a s -> a + s.Runner.shard_completed) 0 ss in
  let share0 = ratio (float_of_int ss.(0).Runner.shard_completed) (float_of_int total) in
  ratio (float_of_int (Paxi_obs.Trace.fast_reads (trace_of t))) share0

(* Busiest replica's in-window occupancy as a share of the window,
   averaged over trials. *)
let leader_busy_frac trials =
  mean_over
    (fun t ->
      let tr = trace_of t in
      let w0, w1 = t.W.window in
      List.fold_left
        (fun m i -> Float.max m (Paxi_obs.Trace.node_busy_ms tr i))
        0.0 (Paxi_obs.Trace.node_ids tr)
      /. (w1 -. w0))
    trials

(* max/mean of a deployment's per-group throughputs (1.0 is perfect
   balance), averaged over trials *)
let shard_imbalance trials =
  let imbalance t =
    let rps =
      Array.map
        (fun s -> s.Runner.shard_throughput_rps)
        t.W.result.Runner.shard_stats
    in
    let mean = Array.fold_left ( +. ) 0.0 rps /. float_of_int (Array.length rps) in
    ratio (Array.fold_left Float.max 0.0 rps) mean
  in
  mean_over imbalance trials

(* Host-cost composition: each run's counts times the layer
   micro-benchmark costs, as a predicted host ns per simulator event.
   Messages are priced by send-to-handler (which covers their own
   events), every other event by an armed-and-fired timer, each log
   commit by a slot fill/advance, an execution and one quorum vote per
   follower, and every completion by the client's op generation and
   routing. *)
let predicted_ns_per_event ~cost ~events_per_message trials =
  let total =
    fsum
      (fun t ->
        let r = t.W.result in
        let f = float_of_int in
        let msgs = f r.Runner.messages_sent in
        let evs = f r.Runner.sim_events in
        let msg_events = Float.min evs (msgs *. events_per_message) in
        let commits = Float.max 0.0 (f r.Runner.completed -. fast_reads t) in
        (msgs *. cost "net.send_deliver")
        +. ((evs -. msg_events) *. cost "sim.timer")
        +. (commits
           *. (cost "core.slot_set_advance" +. cost "core.execute"
              +. (f (t.W.n - 1) *. cost "quorum.ack")))
        +. (f r.Runner.storage_writes *. cost "storage.write_sync")
        +. (f r.Runner.retransmits *. cost "net.reliable_post_settle")
        +. (f r.Runner.completed
           *. (cost "benchmark.next_op" +. cost "shard.route")))
      trials
  in
  ratio total (float_of_int (events trials))

(* Latency_model's paxos LAN latency at the measured throughput,
   against the measured mean, as a relative error. *)
let lan_model_rel_err (r : Runner.result) =
  let open Paxi_model in
  match
    Latency_model.lan_point Latency_model.Paxos
      ~node:(Service.default_node ~n:9) ~lan:Latency_model.default_lan
      ~rng:(Rng.create ~seed:1) ~lambda_rps:r.Runner.throughput_rps
  with
  | Some p ->
      let measured = Stats.mean r.Runner.latency in
      (p.Latency_model.latency_ms -. measured) /. measured
  | None -> Float.nan

let print_trace_details trials =
  List.iter
    (fun t ->
      let tr = trace_of t in
      Printf.printf "trace %s: components (mean ms):" t.W.protocol;
      List.iter
        (fun (name, s) -> Printf.printf " %s=%.4f" name (Stats.mean s))
        (Paxi_obs.Trace.components tr);
      print_newline ();
      List.iter
        (fun i ->
          Printf.printf "trace %s: node %d busy=%.1fms wait=%.1fms msgs=%d\n"
            t.W.protocol i
            (Paxi_obs.Trace.node_busy_ms tr i)
            (Paxi_obs.Trace.node_wait_ms tr i)
            (Paxi_obs.Trace.node_msgs tr i))
        (Paxi_obs.Trace.node_ids tr);
      Printf.printf "trace %s: messages by type:%s\n" t.W.protocol
        (String.concat ""
           (List.map
              (fun (k, n) -> Printf.sprintf " %s=%d" k n)
              (Paxi_obs.Trace.message_counts tr))))
    trials

let per_layer ~kind ~seed ~reps ~traced ~costs ~lan_point ~host_ops_per_s =
  let reference = List.hd reps in
  let f = float_of_int in
  let ops = f (completed reference) in
  let sum_i g = f (isum g (results reference)) in
  let sum_f g = fsum g (results reference) in
  let evs = f (events reference) in
  let run_part t = t.W.run_s in
  let untraced_s = host_s ~part:run_part reps in
  let traced_s = host_s ~part:run_part traced in
  let ns_per_event = 1e9 *. untraced_s /. evs in
  (* the traced, checked run: dissection, messages, and the checkers *)
  let traced_checked =
    if W.always_checked kind then List.hd traced
    else begin
      let trials = W.run kind ~seed { W.tracing = true; checked = true } in
      check_same ~what:"traced checked run" (fingerprint reference) trials;
      trials
    end
  in
  record_problems traced_checked;
  print_trace_details traced_checked;
  (* the latency floor without replication: paxos does not complete
     operations at n = 1, so the single-replica baseline is chain
     replication, where one node is both head and tail *)
  let n1 =
    W.run_spec ~protocol:"chain"
      (W.lan_spec ~n:1 ~warmup_ms:300.0 ~duration_ms:1_000.0
         ~seed:continuity_seed W.timed)
  in
  let cost name = (List.assoc name costs).Micro.ns in
  let predicted =
    predicted_ns_per_event ~cost
      ~events_per_message:(Micro.events_per_message ())
      traced_checked
  in
  let protocol_host_s protocol =
    if List.exists (fun t -> t.W.protocol = protocol) reference then
      host_s
        (List.map (List.filter (fun t -> t.W.protocol = protocol)) reps)
    else 0.0
  in
  let history_ops =
    f (isum (fun t -> List.length t.W.result.Runner.history) traced_checked)
  in
  let check_s = fsum (fun t -> t.W.check_s) traced_checked in
  let fast = fsum fast_reads traced_checked in
  let offered =
    match kind with
    | W.Shard_lease_durable -> W.shard_offered_rps
    | W.Lan_paxos | W.Nemesis_all -> sim_throughput reference
  in
  let writes = sum_i (fun r -> r.Runner.storage_writes) in
  let fsyncs = sum_i (fun r -> r.Runner.storage_fsyncs) in
  let m = metric in
  m "host_ops_per_s" "1/s" host_ops_per_s;
  (* sim *)
  m "sim.events_per_op" "count" (ratio evs ops);
  m "sim.ns_per_event" "ns" ns_per_event;
  m "sim.alloc_bytes_per_event" "B" (ratio (sum_f (fun r -> r.Runner.allocated_bytes)) evs);
  m "sim.inlined_share" "ratio" (ratio (sum_i (fun r -> r.Runner.sim_events_inlined)) evs);
  (* net *)
  m "net.msgs_per_op" "count" (ratio (sum_i (fun r -> r.Runner.messages_sent)) ops);
  m "net.retransmits_per_op" "count" (ratio (sum_i (fun r -> r.Runner.retransmits)) ops);
  m "net.leader_busy_frac" "ratio" (leader_busy_frac traced_checked);
  m "net.client_net_ms" "ms" (component traced_checked "net client->replica");
  m "net.queue_wait_ms" "ms" (component traced_checked "queue wait");
  m "net.reply_net_ms" "ms" (component traced_checked "net replica->client");
  (* quorum, core, protocols *)
  m "quorum.wait_ms" "ms" (component traced_checked "quorum wait");
  m "core.service_ms" "ms" (component traced_checked "service");
  m "core.exec_reply_ms" "ms" (component traced_checked "exec+reply");
  m "core.n1_p50_ms" "ms" (Stats.median n1.Runner.latency);
  m "protocols.propose_gap_ms" "ms" (component traced_checked "propose gap");
  m "protocols.server_residency_ms" "ms" (component traced_checked "server residency");
  m "protocols.fast_read_share" "ratio" (ratio fast ops);
  List.iter
    (fun p -> m (Printf.sprintf "protocols.%s.host_s" p) "s" (protocol_host_s p))
    W.nemesis_protocols;
  (* storage *)
  m "storage.writes_per_op" "count" (ratio writes ops);
  m "storage.fsyncs_per_write" "ratio" (ratio fsyncs writes);
  m "storage.fsync_ms" "ms" (ratio (sum_f (fun r -> r.Runner.storage_busy_ms)) fsyncs);
  m "storage.replay_ms_total" "ms" (sum_f (fun r -> r.Runner.replay_ms_total));
  (* shard, benchmark *)
  m "shard.imbalance" "ratio" (shard_imbalance reference);
  m "benchmark.check_ns_per_op" "ns" (ratio (1e9 *. check_s) history_ops);
  m "benchmark.offered_rps" "1/s" offered;
  m "benchmark.backlog_share" "ratio" (1.0 -. ratio (sim_throughput reference) offered);
  m "failed_ratio" "ratio" (ratio (f (gave_up reference)) (ops +. f (gave_up reference)));
  m "oracle_failures" "count"
    (f (List.length (List.filter (fun t -> t.W.problems <> []) traced_checked)));
  (* obs, model, host composition *)
  m "obs.trace_overhead" "ratio" ((traced_s /. untraced_s) -. 1.0);
  m "obs.dropped_spans" "count"
    (f (isum (fun t -> Paxi_obs.Trace.dropped_spans (trace_of t)) traced_checked));
  m "model.lan_rel_err" "ratio" (lan_model_rel_err lan_point);
  m "host.predicted_ns_per_event" "ns" predicted;
  m "host.residual_ratio" "ratio" ((ns_per_event -. predicted) /. ns_per_event);
  List.iter
    (fun (name, c) ->
      m (name ^ "_ns") "ns" c.Micro.ns;
      m (name ^ "_words") "words" c.Micro.words)
    costs

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let out_dir = ".perfbench_out"

let () =
  let (name, kind), seed, seconds, trace = parse_args () in
  let seconds = float_of_int seconds in
  if trace then Spans.enable ();
  Printf.printf "perfbench: workload %s, seed %d, %.0f s, trace %b\n%!" name
    seed seconds trace;
  let lan_point = continuity () in
  Printf.printf "continuity: old guard lan point %d events, %.0f rps\n%!"
    lan_point.Runner.sim_events lan_point.Runner.throughput_rps;
  (* micro-benchmarks first, on a small heap: a large live heap from
     the workload runs would bill its major-GC slices to them *)
  let costs = if trace then Micro.measure ~quota_s:0.2 else [] in
  let mode = { W.tracing = false; checked = W.always_checked kind } in
  let warm = W.run kind ~seed mode in
  let peak_heap_mb =
    mean_over
      (fun t -> float_of_int (t.W.peak_heap_words * (Sys.word_size / 8)) /. 1e6)
      warm
  in
  record_problems warm;
  let reference = fingerprint warm in
  (* Each timed repeat is preceded by set-up samples (--trace 0) or
     followed by one traced repeat (--trace 1), so both see the same
     host phases. A set-up takes well under a millisecond, so a sample
     is the mean of a batch. *)
  let setup_samples = ref [] and traced = ref [] in
  let setup_batch = 20 in
  let reps =
    repeat ~seconds ~min_reps:3 (fun () ->
        if not trace then
          for _ = 1 to 5 do
            let (), s =
              W.time (fun () ->
                  for _ = 1 to setup_batch do
                    W.setup kind ~seed
                  done)
            in
            setup_samples := (s /. float_of_int setup_batch) :: !setup_samples
          done;
        let trials = W.run kind ~seed mode in
        if trace then
          traced := W.run kind ~seed { mode with W.tracing = true } :: !traced;
        trials)
  in
  List.iter (check_same ~what:"timed run" reference) reps;
  List.iter (check_same ~what:"traced run" reference) !traced;
  Printf.printf "timed: %d repeats, host s:%s\n%!" (List.length reps)
    (String.concat ""
       (List.map (fun r -> Printf.sprintf " %.3f" (host_s [ r ])) reps));
  let host_ops_per_s = float_of_int (completed warm) /. host_s reps in
  if trace then
    per_layer ~kind ~seed ~reps ~traced:!traced ~costs ~lan_point
      ~host_ops_per_s
  else begin
    let checked =
      if W.always_checked kind then warm
      else begin
        let trials = W.run kind ~seed { W.tracing = false; checked = true } in
        check_same ~what:"checked run" reference trials;
        record_problems trials;
        trials
      end
    in
    let lat = merged (fun r -> r.Runner.latency) warm in
    let fp k = List.assoc k reference in
    Printf.printf "sim_p99_ms over %d latency samples; %d ops gave up; %d \
                   trials failed the oracle\n"
      (Stats.count lat) (gave_up warm)
      (List.length (List.filter (fun t -> t.W.problems <> []) checked));
    Printf.printf "host_ops_per_s %.0f 1/s (a per-layer metric)\n"
      host_ops_per_s;
    metric "setup_s" "s" (fastest !setup_samples);
    metric "peak_heap_mb" "MB" peak_heap_mb;
    metric "sim_throughput_rps" "1/s" (fp "sim_throughput_rps");
    metric "sim_p50_ms" "ms" (fp "sim_p50_ms");
    metric "sim_p99_ms" "ms" (fp "sim_p99_ms");
    metric "read_p50_ms" "ms" (fp "read_p50_ms");
    metric "write_p50_ms" "ms" (fp "write_p50_ms");
    metric "stall_ms" "ms"
      (stall_ms ~segment_ms:(W.stall_segment_ms kind) checked)
  end;
  if trace then begin
    if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
    let path = Filename.concat out_dir (name ^ ".trace.json") in
    Spans.write path;
    Printf.printf "host spans: %s\n" path
  end;
  let gave_up = gave_up warm in
  let correct =
    print_result ~attempted:(completed warm + gave_up) ~failed:gave_up
  in
  exit (if correct then 0 else 1)
