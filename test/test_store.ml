let cmd id op = Command.make ~id ~client:0 op

let test_conflicts () =
  let w1 = cmd 1 (Command.Put (5, 10)) in
  let w2 = cmd 2 (Command.Put (5, 20)) in
  let r = cmd 3 (Command.Get 5) in
  let other = cmd 4 (Command.Get 6) in
  Alcotest.(check bool) "w/w same key" true (Command.conflicts w1 w2);
  Alcotest.(check bool) "w/r same key" true (Command.conflicts w1 r);
  Alcotest.(check bool) "r/r same key" false (Command.conflicts r r);
  Alcotest.(check bool) "different keys" false (Command.conflicts w1 other);
  Alcotest.(check bool) "noop never conflicts" false
    (Command.conflicts Command.noop w1)

let test_command_accessors () =
  let c = cmd 1 (Command.Put (3, 4)) in
  Alcotest.(check int) "key" 3 (Command.key c);
  Alcotest.(check bool) "is_write" true (Command.is_write c);
  Alcotest.(check bool) "read not write" true (Command.is_read (cmd 2 (Command.Get 1)));
  Alcotest.(check bool) "delete is write" true (Command.is_write (cmd 3 (Command.Delete 1)));
  Alcotest.(check bool) "noop" true (Command.is_noop Command.noop)

let test_kv_versions () =
  let kv = Kv.create () in
  Alcotest.(check (option int)) "absent" None (Kv.get kv 1);
  Kv.put kv (cmd 1 (Command.Put (1, 10))) 1 10;
  Alcotest.(check (option int)) "first" (Some 10) (Kv.get kv 1);
  Kv.put kv (cmd 2 (Command.Put (1, 20))) 1 20;
  Alcotest.(check (option int)) "updated" (Some 20) (Kv.get kv 1);
  Kv.delete kv (cmd 3 (Command.Delete 1)) 1;
  Alcotest.(check (option int)) "deleted" None (Kv.get kv 1);
  let versions = Kv.versions kv 1 in
  Alcotest.(check int) "three versions" 3 (List.length versions);
  Alcotest.(check (list int)) "seq order" [ 1; 2; 3 ]
    (List.map (fun v -> v.Kv.seq) versions)

let test_kv_keys () =
  let kv = Kv.create () in
  Kv.put kv (cmd 1 (Command.Put (1, 1))) 1 1;
  Kv.put kv (cmd 2 (Command.Put (2, 2))) 2 2;
  Alcotest.(check int) "size" 2 (Kv.size kv);
  Alcotest.(check (list int)) "keys" [ 1; 2 ] (List.sort compare (Kv.keys kv))

let test_state_machine_apply () =
  let sm = State_machine.create () in
  let r1 = State_machine.apply sm (cmd 1 (Command.Put (1, 10))) in
  Alcotest.(check (option int)) "write returns none" None r1.State_machine.read;
  let r2 = State_machine.apply sm (cmd 2 (Command.Get 1)) in
  Alcotest.(check (option int)) "read sees write" (Some 10) r2.State_machine.read;
  let r3 = State_machine.apply sm (cmd 3 (Command.Get 99)) in
  Alcotest.(check (option int)) "missing key" None r3.State_machine.read;
  Alcotest.(check int) "applied count" 3 (State_machine.applied_count sm)

let test_state_machine_noop () =
  let sm = State_machine.create () in
  ignore (State_machine.apply sm Command.noop);
  Alcotest.(check int) "no keys touched" 0 (Kv.size (State_machine.store sm));
  Alcotest.(check int) "but recorded" 1 (State_machine.applied_count sm)

let test_key_history () =
  let sm = State_machine.create () in
  let w1 = cmd 1 (Command.Put (1, 10)) in
  let w2 = cmd 2 (Command.Put (1, 20)) in
  ignore (State_machine.apply sm w1);
  ignore (State_machine.apply sm (cmd 5 (Command.Get 1)));
  ignore (State_machine.apply sm w2);
  let h = State_machine.key_history sm 1 in
  Alcotest.(check int) "two writers" 2 (List.length h);
  Alcotest.(check bool) "order" true
    (Command.equal (List.nth h 0) w1 && Command.equal (List.nth h 1) w2)

let test_executor_dedup () =
  let e = Executor.create () in
  let w = cmd 1 (Command.Put (1, 10)) in
  Alcotest.(check (option int)) "first" None (Executor.execute e w);
  let r = cmd 2 (Command.Get 1) in
  Alcotest.(check (option int)) "read" (Some 10) (Executor.execute e r);
  (* re-deciding the same read returns the memoized result even after
     later writes *)
  ignore (Executor.execute e (cmd 3 (Command.Put (1, 99))));
  Alcotest.(check (option int)) "memoized" (Some 10) (Executor.execute e r);
  Alcotest.(check int) "3 distinct" 3 (Executor.executed_count e);
  Alcotest.(check bool) "already executed" true (Executor.already_executed e r)

let test_executor_noop () =
  let e = Executor.create () in
  Alcotest.(check (option int)) "noop" None (Executor.execute e Command.noop);
  Alcotest.(check int) "not counted" 0 (Executor.executed_count e);
  Alcotest.(check bool) "noop not tracked" false
    (Executor.already_executed e Command.noop)

let test_executor_distinct_clients () =
  let e = Executor.create () in
  let a = Command.make ~id:1 ~client:0 (Command.Put (1, 10)) in
  let b = Command.make ~id:1 ~client:1 (Command.Put (1, 20)) in
  ignore (Executor.execute e a);
  ignore (Executor.execute e b);
  Alcotest.(check int) "same id different client" 2 (Executor.executed_count e)

(* The memo key packs (client, id) into one int; swapping the two must
   still name two different commands. *)
let test_executor_memo_key_packing () =
  let e = Executor.create () in
  let a = Command.make ~id:5 ~client:1 (Command.Put (1, 10)) in
  let b = Command.make ~id:1 ~client:5 (Command.Put (1, 20)) in
  ignore (Executor.execute e a);
  Alcotest.(check bool) "(client 5, id 1) not yet executed" false
    (Executor.already_executed e b);
  ignore (Executor.execute e b);
  Alcotest.(check int) "two distinct commands" 2 (Executor.executed_count e);
  let r = Command.make ~id:6 ~client:1 (Command.Get 1) in
  Alcotest.(check (option int)) "read sees the later write" (Some 20)
    (Executor.execute e r);
  ignore (Executor.execute e (Command.make ~id:2 ~client:5 (Command.Put (1, 30))));
  (* a retried read decided again returns its memoised value *)
  Alcotest.(check (option int)) "retried read memoised" (Some 20)
    (Executor.execute e (Command.make ~id:6 ~client:1 (Command.Get 1)));
  Alcotest.(check int) "retry not re-applied" 4 (Executor.executed_count e)

(* The applied sequence grows by doubling from 64: order must survive
   the copies, and a snapshot image must replay to the same state. *)
let test_applied_order_past_growth () =
  let e = Executor.create () in
  let cmds =
    List.init 200 (fun i ->
        Command.make ~id:i ~client:(i mod 3)
          (if i mod 4 = 0 then Command.Get (i mod 7) else Command.Put (i mod 7, i)))
  in
  List.iter (fun c -> ignore (Executor.execute e c)) cmds;
  let sm = Executor.state_machine e in
  Alcotest.(check int) "count" 200 (State_machine.applied_count sm);
  Alcotest.(check bool) "oldest first" true
    (List.equal Command.equal cmds (Array.to_list (State_machine.applied sm)));
  let img = Executor.image e in
  Alcotest.(check bool) "image is the applied list" true
    (List.equal Command.equal cmds (Array.to_list img));
  let e' = Executor.create () in
  Executor.install e' img;
  Alcotest.(check bool) "install round-trips" true
    (List.equal Command.equal cmds
       (Array.to_list (State_machine.applied (Executor.state_machine e'))));
  Alcotest.(check bool) "image round-trips" true
    (Array.for_all2 Command.equal img (Executor.image e'));
  for k = 0 to 6 do
    let get = Command.make ~id:1000 ~client:9 (Command.Get k) in
    Alcotest.(check (option int)) (Printf.sprintf "key %d" k)
      (Executor.read e get) (Executor.read e' get)
  done;
  (* the image is a copy: later applies do not show in it *)
  ignore (Executor.execute e (Command.make ~id:500 ~client:0 (Command.Put (0, 0))));
  Alcotest.(check int) "image unchanged" 200 (Array.length img)

let test_ballot_ordering () =
  let open Ballot in
  let b1 = initial ~owner:0 in
  let b2 = initial ~owner:1 in
  Alcotest.(check bool) "owner tiebreak" true (b1 < b2);
  Alcotest.(check bool) "round dominates" true (b2 < next b1 ~owner:0);
  Alcotest.(check bool) "zero smallest" true (zero < b1);
  Alcotest.(check bool) "succ bigger" true (b1 < succ b1);
  Alcotest.(check bool) "equal" true (equal b1 (initial ~owner:0))

let test_slot_log () =
  let log = Slot_log.create () in
  Alcotest.(check (option int)) "empty" None (Slot_log.get log 0);
  Slot_log.set log 2 20;
  Alcotest.(check (option int)) "sparse" (Some 20) (Slot_log.get log 2);
  Alcotest.(check int) "next" 3 (Slot_log.next_slot log);
  Alcotest.(check int) "reserve" 3 (Slot_log.reserve log);
  Alcotest.(check int) "filled" 1 (Slot_log.filled_count log)

let test_slot_log_frontier () =
  let log = Slot_log.create () in
  Slot_log.set log 0 "a";
  Slot_log.set log 2 "c";
  let executed = ref [] in
  Slot_log.advance_frontier log
    ~executable:(fun _ -> true)
    ~f:(fun i v -> executed := (i, v) :: !executed);
  Alcotest.(check int) "stops at gap" 1 (Slot_log.exec_frontier log);
  Slot_log.set log 1 "b";
  Slot_log.advance_frontier log
    ~executable:(fun _ -> true)
    ~f:(fun i v -> executed := (i, v) :: !executed);
  Alcotest.(check int) "resumes past gap" 3 (Slot_log.exec_frontier log);
  Alcotest.(check (list (pair int string))) "order" [ (0, "a"); (1, "b"); (2, "c") ]
    (List.rev !executed)

let test_slot_log_growth () =
  let log = Slot_log.create () in
  Slot_log.set log 1000 42;
  Alcotest.(check (option int)) "grown" (Some 42) (Slot_log.get log 1000)

let test_config_validation () =
  let ok c = Alcotest.(check bool) "valid" true (Config.validate c = Ok ()) in
  let bad c = Alcotest.(check bool) "invalid" true (Config.validate c <> Ok ()) in
  ok (Config.default ~n_replicas:5);
  bad { (Config.default ~n_replicas:5) with Config.n_replicas = 0 };
  bad { (Config.default ~n_replicas:5) with Config.q2_size = Some 9 };
  ok { (Config.default ~n_replicas:9) with Config.q2_size = Some 3 };
  bad { (Config.default ~n_replicas:5) with Config.epaxos_penalty = 0.5 };
  bad { (Config.default ~n_replicas:5) with Config.fz = -1 };
  bad { (Config.default ~n_replicas:5) with Config.client_timeout_ms = 0.0 }

let test_config_quorums () =
  let c = Config.default ~n_replicas:9 in
  Alcotest.(check int) "majority" 5 (Config.majority c);
  Alcotest.(check int) "default q2" 5 (Config.phase2_quorum_size c);
  let c = { c with Config.q2_size = Some 3 } in
  Alcotest.(check int) "fpaxos q2" 3 (Config.phase2_quorum_size c)

let suite =
  ( "store",
    [
      Alcotest.test_case "command conflicts" `Quick test_conflicts;
      Alcotest.test_case "command accessors" `Quick test_command_accessors;
      Alcotest.test_case "kv versions" `Quick test_kv_versions;
      Alcotest.test_case "kv keys" `Quick test_kv_keys;
      Alcotest.test_case "state machine apply" `Quick test_state_machine_apply;
      Alcotest.test_case "state machine noop" `Quick test_state_machine_noop;
      Alcotest.test_case "key history" `Quick test_key_history;
      Alcotest.test_case "executor dedup" `Quick test_executor_dedup;
      Alcotest.test_case "executor noop" `Quick test_executor_noop;
      Alcotest.test_case "executor distinct clients" `Quick test_executor_distinct_clients;
      Alcotest.test_case "executor memo key packing" `Quick
        test_executor_memo_key_packing;
      Alcotest.test_case "applied order past growth" `Quick
        test_applied_order_past_growth;
      Alcotest.test_case "ballot ordering" `Quick test_ballot_ordering;
      Alcotest.test_case "slot log basics" `Quick test_slot_log;
      Alcotest.test_case "slot log frontier" `Quick test_slot_log_frontier;
      Alcotest.test_case "slot log growth" `Quick test_slot_log_growth;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "config quorums" `Quick test_config_quorums;
    ] )
