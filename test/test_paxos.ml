module P = Paxi_protocols.Paxos
module H = Proto_harness.Make (Paxi_protocols.Paxos)

let put k v = Command.Put (k, v)
let get k = Command.Get k

let test_commits_and_replies () =
  let h = H.lan ~n:5 () in
  let replies = h |> fun h -> H.submit_seq h [ put 1 10; get 1; put 2 20; get 2 ] in
  Alcotest.(check int) "all replied" 4 (List.length replies);
  let reads = List.filter_map (fun (r : Proto.reply) -> r.Proto.read) replies in
  Alcotest.(check (list int)) "reads see writes" [ 10; 20 ] reads

let test_replica_zero_becomes_leader () =
  let h = H.lan ~n:5 () in
  H.run_for h 100.0;
  Alcotest.(check bool) "r0 leads" true (P.is_leader (H.replica h 0));
  Alcotest.(check bool) "r1 follows" false (P.is_leader (H.replica h 1))

let test_followers_learn_commits () =
  let h = H.lan ~n:5 () in
  let ops = List.init 20 (fun i -> put (i mod 4) i) in
  ignore (H.submit_seq h ops);
  (* heartbeats propagate the tail commit *)
  H.run_for h 2_000.0;
  for i = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d applied all" i)
      20
      (List.length (H.applied_commands h i))
  done;
  H.assert_consistent h

let test_forwarding_from_follower () =
  let h = H.lan ~n:5 () in
  H.run_for h 100.0;
  (* target a follower; the request must still commit via the leader *)
  let replies = H.submit_seq h ~target:3 [ put 7 70; get 7 ] in
  Alcotest.(check int) "replied" 2 (List.length replies);
  let r = List.nth replies 1 in
  Alcotest.(check (option int)) "read" (Some 70) r.Proto.read

let test_leader_crash_failover () =
  let h = H.lan ~n:5 () in
  H.run_for h 100.0;
  Faults.crash (H.faults h) ~node:(Address.replica 0)
    ~from_ms:(Sim.now (H.sim h))
    ~duration_ms:600_000.0;
  let replies = H.submit_seq h ~target:1 (List.init 10 (fun i -> put i i)) in
  Alcotest.(check int) "all commands survive failover" 10 (List.length replies);
  (* some survivor took over *)
  let new_leader = List.exists (fun i -> P.is_leader (H.replica h i)) [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "new leader elected" true new_leader;
  H.assert_consistent h

let test_no_commit_without_majority () =
  let h = H.lan ~n:5 () in
  H.run_for h 100.0;
  (* isolate the leader with 3 crashed followers: no majority *)
  List.iter
    (fun i ->
      Faults.crash (H.faults h) ~node:(Address.replica i)
        ~from_ms:(Sim.now (H.sim h))
        ~duration_ms:30_000.0)
    [ 2; 3; 4 ];
  let client = H.new_client h in
  let command = Command.make ~id:0 ~client (put 1 1) in
  let module C = H.C in
  let got = ref false in
  C.submit h.H.cluster ~client ~target:0 ~command ~on_reply:(fun _ -> got := true);
  H.run_for h 5_000.0;
  Alcotest.(check bool) "no reply without quorum" false !got;
  (* replicas recover; retransmission is the client's job, so resend *)
  H.run_for h 30_000.0;
  C.submit h.H.cluster ~client ~target:0 ~command ~on_reply:(fun _ -> got := true);
  H.run_for h 10_000.0;
  Alcotest.(check bool) "commits after heal" true !got

let test_duplicate_submission_executes_once () =
  let h = H.lan ~n:3 () in
  H.run_for h 100.0;
  let client = H.new_client h in
  let module C = H.C in
  let command = Command.make ~id:0 ~client (put 1 1) in
  let replies = ref 0 in
  C.submit h.H.cluster ~client ~target:0 ~command ~on_reply:(fun _ -> incr replies);
  H.run_for h 500.0;
  C.submit h.H.cluster ~client ~target:0 ~command ~on_reply:(fun _ -> incr replies);
  H.run_for h 2_000.0;
  (* the state machine applied the write once *)
  let writers = State_machine.key_history (H.state_machine h 0) 1 in
  Alcotest.(check int) "single version" 1 (List.length writers)

let test_fpaxos_small_quorum_commits () =
  let config =
    { (Config.default ~n_replicas:9) with Config.q2_size = Some 3 }
  in
  let h = H.lan ~config ~n:9 () in
  let replies = H.submit_seq h [ put 1 10; get 1 ] in
  Alcotest.(check int) "works with q2=3" 2 (List.length replies);
  Alcotest.(check (option int)) "read" (Some 10) (List.nth replies 1).Proto.read

let test_fpaxos_module_defaults () =
  Alcotest.(check int) "paper q2 for 9 nodes" 3 (Paxi_protocols.Fpaxos.default_q2 ~n:9);
  let module HF = Proto_harness.Make (Paxi_protocols.Fpaxos) in
  let h = HF.lan ~n:9 () in
  let replies = HF.submit_seq h [ put 1 1; get 1 ] in
  Alcotest.(check int) "fpaxos commits" 2 (List.length replies)

let test_thrifty_commits () =
  let config = { (Config.default ~n_replicas:5) with Config.thrifty = true } in
  let h = H.lan ~config ~n:5 () in
  let replies = H.submit_seq h (List.init 10 (fun i -> put i i)) in
  Alcotest.(check int) "thrifty works" 10 (List.length replies)

let test_explicit_commit_mode () =
  let config =
    { (Config.default ~n_replicas:5) with Config.piggyback_commit = false }
  in
  let h = H.lan ~config ~n:5 () in
  ignore (H.submit_seq h (List.init 10 (fun i -> put i i)));
  H.run_for h 1_000.0;
  for i = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d" i)
      10
      (List.length (H.applied_commands h i))
  done

let test_wan_paxos () =
  let h = H.wan3 () in
  let replies = H.submit_seq h [ put 1 10; get 1 ] in
  Alcotest.(check int) "commits over WAN" 2 (List.length replies);
  (* majority of 9 across VA/OH/CA needs cross-region round trips *)
  H.assert_consistent h

(* A replica crashed while the others commit and execute 30 commands
   recovers with frontier 0 after they have moved every one of those
   slots into their executed prefix, and the leader crashes at that
   moment. The recovered replica has the shortest failover timeout of
   the survivors, so it runs phase 1 from frontier 0: the P1bs must
   report the executed slots from the others' compacted prefixes, and
   the replica must re-propose and apply exactly the committed
   commands. Storage is on (sync=none) so the crash windows are real
   crashes: the replica reboots empty and its timers stop while down. *)
let test_lagging_replica_recovers_compacted_prefix () =
  let faults = Faults.create () in
  Faults.crash faults ~node:(Address.replica 1) ~from_ms:100.0
    ~duration_ms:5_000.0;
  Faults.crash faults ~node:(Address.replica 0) ~from_ms:5_100.0
    ~duration_ms:600_000.0;
  let config =
    {
      (Config.default ~n_replicas:5) with
      Config.storage =
        Some { Storage.default_config with Storage.sync_mode = Storage.Sync_none };
    }
  in
  let cluster =
    H.C.create ~faults ~config ~topology:(Topology.lan ~n_replicas:5 ()) ()
  in
  let h = { H.cluster; sim = H.C.sim cluster; faults; config; next_client = 0 } in
  H.run_for h 200.0;
  let ops = List.init 30 (fun i -> put (i mod 7) i) in
  Alcotest.(check int) "committed without the laggard" 30
    (List.length (H.submit_seq h ops));
  H.run_for h 500.0;
  let r2 = H.replica h 2 in
  Alcotest.(check bool) "survivors executed everything" true
    (P.commit_frontier r2 >= 30);
  (match P.log_entry r2 0 with
  | Some (_, _, committed) ->
      Alcotest.(check bool) "executed slot reads as committed" true committed
  | None -> Alcotest.fail "executed slot 0 unreadable");
  Alcotest.(check bool) "the laggard's crash outlasts the commits" true
    (Sim.now (H.sim h) < 5_100.0);
  Sim.run_until (H.sim h) 10_000.0;
  let r1 = H.replica h 1 in
  Alcotest.(check bool) "laggard leads" true (P.is_leader r1);
  Alcotest.(check int) "under its own ballot" 1 (P.current_ballot r1).Ballot.owner;
  let show i = List.map (Format.asprintf "%a" Command.pp) (H.applied_commands h i) in
  Alcotest.(check (list string)) "laggard applied exactly the committed commands"
    (show 2) (show 1);
  Alcotest.(check int) "all thirty" 30 (List.length (show 1));
  H.assert_consistent ~replicas:[ 1; 2; 3; 4 ] h

let suite =
  ( "paxos",
    [
      Alcotest.test_case "commits and replies" `Quick test_commits_and_replies;
      Alcotest.test_case "replica 0 becomes leader" `Quick test_replica_zero_becomes_leader;
      Alcotest.test_case "followers learn commits" `Quick test_followers_learn_commits;
      Alcotest.test_case "follower forwards to leader" `Quick test_forwarding_from_follower;
      Alcotest.test_case "leader crash failover" `Quick test_leader_crash_failover;
      Alcotest.test_case "no commit without majority" `Quick test_no_commit_without_majority;
      Alcotest.test_case "duplicate executes once" `Quick test_duplicate_submission_executes_once;
      Alcotest.test_case "fpaxos small quorum" `Quick test_fpaxos_small_quorum_commits;
      Alcotest.test_case "fpaxos module defaults" `Quick test_fpaxos_module_defaults;
      Alcotest.test_case "thrifty mode" `Quick test_thrifty_commits;
      Alcotest.test_case "explicit commit mode" `Quick test_explicit_commit_mode;
      Alcotest.test_case "wan deployment" `Quick test_wan_paxos;
      Alcotest.test_case "lagging replica recovers compacted prefix" `Quick
        test_lagging_replica_recovers_compacted_prefix;
    ] )
