(* Stable storage and crash recovery (PR 10): device semantics
   (durability at fsync completion, group commit, crash losing the
   unsynced tail), the timer ownership registry, slot-log truncation,
   executor snapshot images, raft threshold snapshots and
   InstallSnapshot catch-up, fixed-seed crash-recover pins for
   paxos/raft, and the sync=none byte-identity pin. *)

open Paxi_benchmark
module Schedule = Paxi_nemesis.Schedule
module Trial = Paxi_nemesis.Trial
module Paxos = Paxi_protocols.Paxos
module Raft = Paxi_protocols.Raft

let durable_every =
  { Storage.default_config with Storage.sync_mode = Storage.Sync_every }

let durable_with ?(threshold = 0) mode =
  {
    Storage.default_config with
    Storage.sync_mode = mode;
    snapshot_threshold = threshold;
  }

(* ------------------------------------------------------------------ *)
(* Storage device                                                      *)
(* ------------------------------------------------------------------ *)

let make_storage ?(mode = Storage.Sync_every) () =
  let sim = Sim.create ~seed:1 () in
  let st =
    Storage.create
      ~config:(durable_with mode)
      ~sim
      ~schedule:(fun delay k -> ignore (Sim.schedule_after sim ~delay k))
      ~rng_parent:(Rng.create ~seed:2)
  in
  (sim, st)

let cmd id = Command.make ~id ~client:0 (Command.Put (id, id))
let entry id = { Storage.a = 1; b = 0; cmd = cmd id }

let test_durable_only_at_fsync_completion () =
  let sim, st = make_storage () in
  let acked = ref false in
  Storage.write st (Storage.Reg (0, 7));
  Storage.write st (Storage.Entry (0, entry 0));
  Storage.sync st (fun () -> acked := true);
  (* nothing is durable, and no ack has fired, before the device
     finishes the fsync *)
  Alcotest.(check bool) "ack waits for the device" false !acked;
  Alcotest.(check int) "register not durable yet" 0 (Storage.reg st 0);
  Alcotest.(check int) "entry not durable yet" 0 (Storage.durable_entries st);
  Sim.run_until sim 10.0;
  Alcotest.(check bool) "ack after fsync completion" true !acked;
  Alcotest.(check int) "register durable" 7 (Storage.reg st 0);
  Alcotest.(check int) "entry durable" 1 (Storage.durable_entries st);
  Alcotest.(check int) "one fsync" 1 (Storage.fsyncs st)

let test_crash_loses_unsynced_tail () =
  let sim, st = make_storage () in
  let acked = ref false in
  Storage.write st (Storage.Reg (0, 3));
  Storage.sync st (fun () -> acked := true);
  Sim.run_until sim 10.0;
  Alcotest.(check int) "first write durable" 3 (Storage.reg st 0);
  (* a second write crashes before its fsync completes: the durable
     image keeps the old value, the continuation never runs, and the
     loss is counted *)
  let late = ref false in
  Storage.write st (Storage.Reg (0, 9));
  Storage.write st (Storage.Entry (0, entry 0));
  Storage.sync st (fun () -> late := true);
  Storage.crash st;
  Sim.run_until sim 20.0;
  Alcotest.(check bool) "stale completion suppressed" false !late;
  Alcotest.(check int) "register kept the durable value" 3 (Storage.reg st 0);
  Alcotest.(check int) "entry lost with the tail" 0 (Storage.durable_entries st);
  Alcotest.(check bool) "losses counted" true (Storage.lost_writes st >= 2);
  Alcotest.(check bool) "ack survived from before" true !acked

let test_batched_group_commit () =
  let sim, st = make_storage ~mode:Storage.Sync_batched () in
  let acks = ref 0 in
  for i = 0 to 2 do
    Storage.write st (Storage.Entry (i, entry i));
    Storage.sync st (fun () -> incr acks)
  done;
  Sim.run_until sim 10.0;
  (* three syncs inside one open window share a single fsync *)
  Alcotest.(check int) "one group-commit fsync" 1 (Storage.fsyncs st);
  Alcotest.(check int) "all three acks fired" 3 !acks;
  Alcotest.(check int) "all three durable" 3 (Storage.durable_entries st)

let test_sync_none_is_synchronous () =
  let sim, st = make_storage ~mode:Storage.Sync_none () in
  let acked = ref false in
  Storage.persist st [ Storage.Reg (0, 5) ] (fun () -> acked := true);
  (* no events, no clock movement, durable immediately *)
  Alcotest.(check bool) "ack ran inline" true !acked;
  Alcotest.(check int) "durable immediately" 5 (Storage.reg st 0);
  Alcotest.(check int) "no fsyncs" 0 (Storage.fsyncs st);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Sim.now sim)

let test_snapshot_truncate_and_replay_cost () =
  let sim, st = make_storage () in
  for i = 0 to 9 do
    Storage.write st (Storage.Entry (i, entry i))
  done;
  Storage.sync st ignore;
  Sim.run_until sim 10.0;
  let full_replay = Storage.replay_cost_ms st in
  Alcotest.(check bool) "replay scales with the log" true (full_replay > 0.0);
  Storage.write st (Storage.Snapshot (6, 1, [| cmd 0 |]));
  Storage.write st (Storage.Truncate 6);
  Storage.sync st ignore;
  Sim.run_until sim 20.0;
  Alcotest.(check int) "base rose to the snapshot" 6 (Storage.log_base st);
  Alcotest.(check int) "retained suffix" 4 (Storage.durable_entries st);
  (match Storage.snapshot st with
  | Some (last, term, image) ->
      Alcotest.(check int) "snapshot frontier" 6 last;
      Alcotest.(check int) "snapshot term" 1 term;
      Alcotest.(check int) "image length" 1 (Array.length image)
  | None -> Alcotest.fail "snapshot not durable");
  let seen = ref [] in
  Storage.iter_entries st ~f:(fun slot _ -> seen := slot :: !seen);
  Alcotest.(check (list int)) "iterates the retained suffix in order"
    [ 6; 7; 8; 9 ] (List.rev !seen);
  Alcotest.(check bool) "truncation cut the replay bill" true
    (Storage.replay_cost_ms st < full_replay)

(* The durable log's columns against a reference map. Ops write
   entries out of order and with holes (slots up to 400, past the
   first 64-slot columns), overwrite slots, persist no-ops, truncate
   (sometimes past the top, sometimes below the base) and sync or
   crash: a crash before the sync loses the unsynced tail, a crash
   right after it loses the in-flight fsync. After every op the base,
   top, entry count, replay cost and the [iter_entries] sequence must
   match the model, which applies a batch only when its fsync
   completes. *)
let prop_storage_log_model =
  let pool = Array.init 5 (fun i -> cmd (100 + i)) in
  QCheck.Test.make ~name:"durable log matches a reference map" ~count:300
    QCheck.(
      list_of_size
        Gen.(0 -- 80)
        (quad (int_bound 9) (int_bound 449) (int_bound 9) (int_bound 5)))
    (fun ops ->
      let sim, st = make_storage () in
      let clock = ref 0.0 in
      let model = Hashtbl.create 64 in
      let base = ref 0 and top = ref 0 in
      let pending = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let apply = function
        | Storage.Entry (slot, e) ->
            if slot >= !base then begin
              Hashtbl.replace model slot e;
              if slot >= !top then top := slot + 1
            end
        | Storage.Truncate upto ->
            if upto > !base then begin
              Hashtbl.filter_map_inplace
                (fun slot e -> if slot < upto then None else Some e)
                model;
              base := upto;
              if !top < upto then top := upto
            end
        | Storage.Reg _ | Storage.Snapshot _ -> ()
      in
      let write op =
        Storage.write st op;
        pending := op :: !pending
      in
      let check step =
        let want =
          Hashtbl.fold (fun slot e acc -> (slot, e) :: acc) model []
          |> List.sort (fun (x, _) (y, _) -> compare x y)
        in
        let got = ref [] in
        Storage.iter_entries st ~f:(fun slot e -> got := (slot, e) :: !got);
        let same (x, (e : Storage.entry)) (y, (f : Storage.entry)) =
          x = y && e.Storage.a = f.Storage.a && e.Storage.b = f.Storage.b
          && e.Storage.cmd == f.Storage.cmd
        in
        if
          Storage.log_base st <> !base
          || Storage.log_top st <> !top
          || Storage.durable_entries st <> Hashtbl.length model
          || Storage.replay_cost_ms st
             <> Storage.default_config.Storage.replay_ms_per_cmd
                *. float_of_int (Hashtbl.length model)
          || not (List.equal same want (List.rev !got))
        then
          fail "step %d: base %d/%d top %d/%d entries %d/%d" step
            (Storage.log_base st) !base (Storage.log_top st) !top
            (Storage.durable_entries st) (Hashtbl.length model)
      in
      List.iteri
        (fun step (kind, x, y, z) ->
          (match kind with
          | 0 | 1 | 2 | 3 ->
              let slot = if kind = 3 then x else x mod 100 in
              let cmd = if z = 5 then Command.noop else pool.(z) in
              write (Storage.Entry (slot, { Storage.a = y; b = z; cmd }))
          | 4 -> write (Storage.Truncate (if y < 5 then x mod 100 else x))
          | 5 | 6 | 7 ->
              Storage.sync st ignore;
              clock := !clock +. 10.0;
              Sim.run_until sim !clock;
              List.iter apply (List.rev !pending);
              pending := []
          | 8 ->
              Storage.sync st ignore;
              Storage.crash st;
              pending := []
          | _ ->
              Storage.crash st;
              pending := []);
          check step)
        ops;
      true)

(* A durable slot costs three words (two tag columns and a command
   pointer), and the doubling columns are at most twice the slots
   they hold, so 10k entries that share one command stay under 5
   words each (16384-slot columns: 4.9). A hash table with an entry
   record per slot cost ~10. Truncating to the last ten slots leaves
   only their columns reachable. *)
let test_storage_log_retained_size () =
  let _sim, st = make_storage ~mode:Storage.Sync_none () in
  let empty = Obj.reachable_words (Obj.repr st) in
  let shared = cmd 1 in
  for i = 0 to 9_999 do
    Storage.write st
      (Storage.Entry (i, { Storage.a = i; b = 1; cmd = shared }))
  done;
  Storage.sync st ignore;
  let words = Obj.reachable_words (Obj.repr st) - empty in
  Alcotest.(check int) "all durable" 10_000 (Storage.durable_entries st);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per durable entry"
       (float_of_int words /. 10_000.0))
    true
    (words <= 5 * 10_000);
  Storage.persist st [ Storage.Truncate 9_990 ] ignore;
  let after = Obj.reachable_words (Obj.repr st) - empty in
  Alcotest.(check bool)
    (Printf.sprintf "prefix freed (%d words left)" after)
    true (after <= 300);
  let seen = ref [] in
  Storage.iter_entries st ~f:(fun slot e ->
      seen := (slot, e.Storage.a) :: !seen);
  Alcotest.(check (list (pair int int))) "suffix survives"
    (List.init 10 (fun i -> (9_990 + i, 9_990 + i)))
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Timer ownership registry                                            *)
(* ------------------------------------------------------------------ *)

let test_timers_cancel_all () =
  let sim = Sim.create ~seed:1 () in
  let tm = Timers.create sim in
  let fired = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Timers.track tm (Sim.schedule_after sim ~delay:10.0 (fun () -> incr fired)))
  done;
  Alcotest.(check int) "five live" 5 (Timers.live_count tm);
  Timers.cancel_all tm;
  Sim.run_until sim 100.0;
  Alcotest.(check int) "none fired" 0 !fired;
  Alcotest.(check int) "five cancelled" 5 (Timers.cancelled_total tm);
  Alcotest.(check int) "registry empty" 0 (Timers.live_count tm)

let test_timers_generation_guard () =
  (* Regression: a tracked handle whose event already fired must go
     stale — if the heap slot is reused by a fresh (untracked) event,
     a later crash-edge [cancel_all] must not shoot it down. The
     simulator's (generation, slot) handles carry the guard; this
     pins it through the registry. *)
  let sim = Sim.create ~seed:1 () in
  let tm = Timers.create sim in
  ignore (Timers.track tm (Sim.schedule_after sim ~delay:1.0 ignore));
  Sim.run_until sim 5.0;
  (* the tracked event fired; new untracked events may reuse its slot *)
  let fresh_fired = ref 0 in
  for _ = 1 to 8 do
    ignore (Sim.schedule_after sim ~delay:10.0 (fun () -> incr fresh_fired))
  done;
  Timers.cancel_all tm;
  Alcotest.(check int) "stale handle not cancelled" 0
    (Timers.cancelled_total tm);
  Sim.run_until sim 100.0;
  Alcotest.(check int) "untracked events untouched" 8 !fresh_fired

(* ------------------------------------------------------------------ *)
(* Slot-log truncation                                                 *)
(* ------------------------------------------------------------------ *)

let test_slot_log_truncate () =
  let log = Slot_log.create () in
  for i = 0 to 9 do
    Slot_log.set log i i
  done;
  Slot_log.truncate log ~upto:5;
  Alcotest.(check int) "base rose" 5 (Slot_log.base log);
  Alcotest.(check int) "next_slot unchanged" 10 (Slot_log.next_slot log);
  Alcotest.(check (option int)) "discarded slot reads None" None
    (Slot_log.get log 3);
  Alcotest.(check (option int)) "retained slot survives" (Some 7)
    (Slot_log.get log 7);
  Alcotest.(check bool) "frontier at least the base" true
    (Slot_log.exec_frontier log >= 5);
  (* writes below the base are ignored, and truncation never regresses *)
  Slot_log.set log 2 99;
  Alcotest.(check (option int)) "set below base ignored" None
    (Slot_log.get log 2);
  Slot_log.truncate log ~upto:3;
  Alcotest.(check int) "truncate below base is a no-op" 5 (Slot_log.base log);
  let seen = ref [] in
  Slot_log.iter_filled log ~f:(fun i _ -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter covers the retained suffix"
    [ 5; 6; 7; 8; 9 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Executor snapshot images                                            *)
(* ------------------------------------------------------------------ *)

let test_executor_image_install () =
  let e = Executor.create () in
  let c0 = Command.make ~id:0 ~client:0 (Command.Put (1, 10)) in
  let c1 = Command.make ~id:1 ~client:0 (Command.Put (2, 20)) in
  let c2 = Command.make ~id:2 ~client:1 (Command.Delete 1) in
  List.iter (fun c -> ignore (Executor.execute e c)) [ c0; c1; c2 ];
  ignore (Executor.execute e Command.noop);
  let img = Executor.image e in
  (* no-ops never enter the image *)
  Alcotest.(check int) "image holds the applied prefix" 3 (Array.length img);
  let e' = Executor.create () in
  Executor.install e' img;
  Alcotest.(check int) "replayed count" (Executor.executed_count e)
    (Executor.executed_count e');
  Alcotest.(check bool) "memo table rebuilt" true
    (Executor.already_executed e' c1);
  let read k =
    Executor.read e' (Command.make ~id:99 ~client:9 (Command.Get k))
  in
  Alcotest.(check (option int)) "store value replayed" (Some 20) (read 2);
  Alcotest.(check (option int)) "delete replayed" None (read 1)

(* ------------------------------------------------------------------ *)
(* Fixed-seed crash-recover pins (direct cluster)                      *)
(* ------------------------------------------------------------------ *)

module CP = Cluster.Make (Paxos)
module CR = Cluster.Make (Raft)

(* One closed-loop client with a rotating-target retry loop — enough
   to keep commits flowing across a crash window without the full
   benchmark Runner. *)
let drive ~sim ~submit ~pending ~horizon_ms =
  let completed = ref 0 in
  let next_id = ref 0 in
  let rec issue () =
    if Sim.now sim < horizon_ms -. 200.0 then begin
      let id = !next_id in
      incr next_id;
      let command = Command.make ~id ~client:0 (Command.Put (id mod 7, id)) in
      let rec attempt target =
        submit ~target ~command ~on_reply:(fun _ ->
            incr completed;
            issue ());
        ignore
          (Sim.schedule_after sim ~delay:150.0 (fun () ->
               if pending ~command then attempt ((target + 1) mod 5)))
      in
      attempt 0
    end
  in
  issue ();
  Sim.run_until sim horizon_ms;
  !completed

let crash_leader_schedule =
  [ Schedule.Crash { node = 0; from_ms = 300.0; duration_ms = 600.0 } ]

let consensus_clean name sms =
  let violations =
    Consensus_check.check ~state_machines:sms ~keys:(List.init 7 Fun.id)
  in
  List.iter
    (fun v ->
      Format.printf "%s divergence: %a@." name Consensus_check.pp_violation v)
    violations;
  Alcotest.(check int) (name ^ " consensus clean") 0 (List.length violations)

let test_paxos_crash_recovery_pin () =
  let faults = Faults.create () in
  Schedule.install crash_leader_schedule ~n:5 faults;
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.seed = 42;
      storage = Some durable_every;
    }
  in
  let cluster =
    CP.create ~faults ~config ~topology:(Topology.lan ~n_replicas:5 ()) ()
  in
  let sim = CP.sim cluster in
  CP.register_client cluster ~id:0 ();
  let completed =
    drive ~sim
      ~submit:(fun ~target ~command ~on_reply ->
        CP.submit cluster ~client:0 ~target ~command ~on_reply)
      ~pending:(fun ~command -> CP.pending cluster ~client:0 ~command)
      ~horizon_ms:3_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress across the crash (%d)" completed)
    true (completed > 100);
  Alcotest.(check int) "exactly one recovery edge" 1 (CP.recoveries cluster);
  Alcotest.(check bool) "replay time charged" true
    (CP.replay_ms_total cluster > 0.0);
  Alcotest.(check bool) "crash cancelled pending timers" true
    (CP.timers_cancelled cluster > 0);
  let writes, fsyncs, busy, _ = CP.storage_totals cluster in
  Alcotest.(check bool) "storage exercised" true (writes > 0 && fsyncs > 0);
  Alcotest.(check bool) "device time accrued" true (busy > 0.0);
  (* The recovered node 0 lost the leadership it booted with; whoever
     leads at the end re-won it through phase 1 under a strictly
     higher ballot — pause-not-crash would have resumed round 1. *)
  let leaders =
    List.filter
      (fun i -> Paxos.is_leader (CP.replica cluster i))
      (List.init 5 Fun.id)
  in
  Alcotest.(check int) "one stable leader at the end" 1 (List.length leaders);
  let b = Paxos.current_ballot (CP.replica cluster (List.hd leaders)) in
  Alcotest.(check bool)
    (Printf.sprintf "leadership re-won via phase 1 (round %d)" b.Ballot.round)
    true (b.Ballot.round >= 2);
  consensus_clean "paxos crash-recover"
    (List.init 5 (fun i ->
         (i, Executor.state_machine (Paxos.executor (CP.replica cluster i)))))

let test_raft_crash_recovery_pin () =
  let faults = Faults.create () in
  Schedule.install crash_leader_schedule ~n:5 faults;
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.seed = 42;
      storage = Some durable_every;
    }
  in
  let cluster =
    CR.create ~faults ~config ~topology:(Topology.lan ~n_replicas:5 ()) ()
  in
  let sim = CR.sim cluster in
  CR.register_client cluster ~id:0 ();
  let completed =
    drive ~sim
      ~submit:(fun ~target ~command ~on_reply ->
        CR.submit cluster ~client:0 ~target ~command ~on_reply)
      ~pending:(fun ~command -> CR.pending cluster ~client:0 ~command)
      ~horizon_ms:3_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress across the crash (%d)" completed)
    true (completed > 100);
  Alcotest.(check int) "exactly one recovery edge" 1 (CR.recoveries cluster);
  Alcotest.(check bool) "replay time charged" true
    (CR.replay_ms_total cluster > 0.0);
  Alcotest.(check bool) "crash cancelled pending timers" true
    (CR.timers_cancelled cluster > 0);
  consensus_clean "raft crash-recover"
    (List.init 5 (fun i ->
         (i, Executor.state_machine (Raft.executor (CR.replica cluster i)))))

(* A follower crashes while the leader compacts its log past the
   follower's durable suffix: catch-up can only happen through
   InstallSnapshot, so converged state machines prove the install and
   truncation paths end to end. *)
let test_raft_snapshot_install () =
  let faults = Faults.create () in
  Schedule.install
    [ Schedule.Crash { node = 4; from_ms = 200.0; duration_ms = 1_500.0 } ]
    ~n:5 faults;
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.seed = 42;
      storage = Some (durable_with ~threshold:10 Storage.Sync_every);
    }
  in
  let cluster =
    CR.create ~faults ~config ~topology:(Topology.lan ~n_replicas:5 ()) ()
  in
  let sim = CR.sim cluster in
  CR.register_client cluster ~id:0 ();
  let completed =
    drive ~sim
      ~submit:(fun ~target ~command ~on_reply ->
        CR.submit cluster ~client:0 ~target ~command ~on_reply)
      ~pending:(fun ~command -> CR.pending cluster ~client:0 ~command)
      ~horizon_ms:4_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress (%d)" completed)
    true (completed > 200);
  let leader =
    match
      List.find_opt
        (fun i -> Raft.role (CR.replica cluster i) = Raft.Leader)
        (List.init 5 Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "no raft leader at the end"
  in
  let lr = CR.replica cluster leader in
  Alcotest.(check bool) "leader snapshotted" true (Raft.snapshots_taken lr >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "leader log compacted (base %d)" (Raft.log_base lr))
    true
    (Raft.log_base lr > 0);
  (* the crashed follower's log starts above 0 too: it accepted an
     installed image, not a slot-by-slot replay of the dead prefix *)
  Alcotest.(check bool)
    (Printf.sprintf "follower 4 rebuilt from a snapshot (base %d)"
       (Raft.log_base (CR.replica cluster 4)))
    true
    (Raft.log_base (CR.replica cluster 4) > 0);
  consensus_clean "raft snapshot install"
    (List.init 5 (fun i ->
         (i, Executor.state_machine (Raft.executor (CR.replica cluster i)))))

(* ------------------------------------------------------------------ *)
(* Nemesis oracle pins with durable storage                            *)
(* ------------------------------------------------------------------ *)

let test_trial_durable_crash protocol () =
  let v =
    Trial.run ~durable:durable_every ~protocol ~seed:42 crash_leader_schedule
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s durable crash pin: %s" protocol
       (String.concat "; " v.Trial.reasons))
    true v.Trial.ok;
  Alcotest.(check int) (protocol ^ " one recovery") 1 v.Trial.recoveries;
  Alcotest.(check bool) (protocol ^ " replay charged") true
    (v.Trial.replay_ms_total > 0.0);
  Alcotest.(check bool) (protocol ^ " timers cancelled") true
    (v.Trial.timers_cancelled > 0)

(* ------------------------------------------------------------------ *)
(* sync=none byte-identity pin                                         *)
(* ------------------------------------------------------------------ *)

let identity_result protocol storage =
  let (module P) = Paxi_protocols.Registry.find_exn protocol in
  let config =
    { (Config.default ~n_replicas:5) with Config.seed = 7; storage }
  in
  Runner.run
    (module P)
    (Runner.spec ~warmup_ms:100.0 ~duration_ms:600.0 ~config
       ~topology:(Topology.lan ~n_replicas:5 ())
       ~client_specs:
         [ Runner.clients ~target:Runner.Round_robin ~count:4 Workload.default ]
       ())

let test_sync_none_identity protocol () =
  (* arming the storage layer with sync=none must not perturb the
     fault-free simulation by a single event or draw *)
  let off = identity_result protocol None in
  let none =
    identity_result protocol (Some (durable_with Storage.Sync_none))
  in
  Alcotest.(check bool)
    (protocol ^ " sync=none byte-identical to storage off")
    true
    (off.Runner.throughput_rps = none.Runner.throughput_rps
    && Stats.samples off.Runner.latency = Stats.samples none.Runner.latency
    && off.Runner.sim_events = none.Runner.sim_events
    && off.Runner.messages_sent = none.Runner.messages_sent);
  Alcotest.(check int)
    (protocol ^ " sync=none never fsyncs")
    0 none.Runner.storage_fsyncs

let suite =
  ( "storage",
    [
      Alcotest.test_case "durable at fsync completion" `Quick
        test_durable_only_at_fsync_completion;
      Alcotest.test_case "crash loses unsynced tail" `Quick
        test_crash_loses_unsynced_tail;
      Alcotest.test_case "batched group commit" `Quick test_batched_group_commit;
      Alcotest.test_case "sync=none synchronous" `Quick
        test_sync_none_is_synchronous;
      Alcotest.test_case "snapshot+truncate+replay cost" `Quick
        test_snapshot_truncate_and_replay_cost;
      QCheck_alcotest.to_alcotest prop_storage_log_model;
      Alcotest.test_case "durable log retained size" `Quick
        test_storage_log_retained_size;
      Alcotest.test_case "timers cancel_all" `Quick test_timers_cancel_all;
      Alcotest.test_case "timers generation guard" `Quick
        test_timers_generation_guard;
      Alcotest.test_case "slot log truncation" `Quick test_slot_log_truncate;
      Alcotest.test_case "executor image/install" `Quick
        test_executor_image_install;
      Alcotest.test_case "paxos crash-recover pin" `Slow
        test_paxos_crash_recovery_pin;
      Alcotest.test_case "raft crash-recover pin" `Slow
        test_raft_crash_recovery_pin;
      Alcotest.test_case "raft snapshot install" `Slow
        test_raft_snapshot_install;
      Alcotest.test_case "trial durable crash paxos" `Slow
        (test_trial_durable_crash "paxos");
      Alcotest.test_case "trial durable crash raft" `Slow
        (test_trial_durable_crash "raft");
      Alcotest.test_case "sync=none identity paxos" `Slow
        (test_sync_none_identity "paxos");
      Alcotest.test_case "sync=none identity raft" `Slow
        (test_sync_none_identity "raft");
    ] )
