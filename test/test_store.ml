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

(* The executed-set bitmap answers like a [(client, id)]-keyed
   reference memo in front of a reference state machine. Commands come
   from a pool mixing small and large ids (one below 2^32, and ids
   either side of a 32-id block edge) with positive and negative
   clients (wankeeper and vpaxos internal writers are [-2 - id]), so
   packed uids are negative too and bitmap words straddle zero. A
   schedule picks pool entries with repeats, as retries do; after
   every step the results, [already_executed] and [executed_count]
   must agree, and an [image]/[install] round-trip must rebuild the
   same executed set, read results and store. *)
let prop_executor_model =
  let clients = [| 0; 1; 5; 31; -1; -2; -3; -10; -1000 |] in
  let ids =
    [| 0; 1; 30; 31; 32; 33; 63; 64; 1000; 65_535; 1_048_607; 0xFFFF_FFFE |]
  in
  let gen_cmd =
    QCheck.Gen.(
      map
        (fun (c, i, kind, k, v) ->
          let op =
            match kind with
            | 0 | 1 -> Command.Get k
            | 2 | 3 -> Command.Put (k, v)
            | _ -> Command.Delete k
          in
          Command.make ~id:ids.(i) ~client:clients.(c) op)
        (tup5
           (int_bound (Array.length clients - 1))
           (int_bound (Array.length ids - 1))
           (int_bound 4) (int_bound 3) (int_bound 99)))
  in
  QCheck.Test.make ~name:"executor matches a reference memo" ~count:300
    (QCheck.make
       ~print:(fun (pool, sched) ->
         Printf.sprintf "pool=[%s] schedule=[%s]"
           (String.concat "; "
              (List.map (Format.asprintf "%a" Command.pp) pool))
           (String.concat "; " (List.map string_of_int sched)))
       QCheck.Gen.(
         pair
           (list_size (1 -- 40) gen_cmd)
           (list_size (0 -- 120) (int_bound 1_000))))
    (fun (pool, sched) ->
      (* one command per (client, id), as a retry re-sends the same op *)
      let seen = Hashtbl.create 64 in
      let pool =
        List.filter
          (fun (c : Command.t) ->
            let k = (c.Command.client, c.Command.id) in
            (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
          pool
        |> Array.of_list
      in
      let e = Executor.create () in
      let memo = Hashtbl.create 64 in
      let sm = State_machine.create () in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let key (c : Command.t) = (c.Command.client, c.Command.id) in
      List.iter
        (fun j ->
          let c = pool.(j mod Array.length pool) in
          if Executor.already_executed e c <> Hashtbl.mem memo (key c) then
            fail "already_executed %a" Command.pp c;
          let want =
            match Hashtbl.find_opt memo (key c) with
            | Some r -> r
            | None ->
                let r = (State_machine.apply sm c).State_machine.read in
                Hashtbl.add memo (key c) r;
                r
          in
          let got = Executor.execute e c in
          if got <> want then fail "execute %a" Command.pp c;
          if Executor.executed_count e <> Hashtbl.length memo then
            fail "executed_count %d, want %d" (Executor.executed_count e)
              (Hashtbl.length memo))
        sched;
      let e' = Executor.create () in
      Executor.install e' (Executor.image e);
      if Executor.executed_count e' <> Hashtbl.length memo then
        fail "installed count %d, want %d" (Executor.executed_count e')
          (Hashtbl.length memo);
      Array.iter
        (fun c ->
          match Hashtbl.find_opt memo (key c) with
          | Some r ->
              if not (Executor.already_executed e' c) then
                fail "installed lost %a" Command.pp c;
              if Executor.execute e' c <> r then
                fail "installed result %a" Command.pp c
          | None ->
              if Executor.already_executed e' c then
                fail "installed invents %a" Command.pp c)
        pool;
      for k = 0 to 3 do
        let get = Command.make ~id:0 ~client:77 (Command.Get k) in
        if Executor.read e' get <> Kv.get (State_machine.store sm) k then
          fail "installed store key %d" k
      done;
      true)

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

(* Slot_log against a reference map of filled slots at or above the
   base. Ops are decoded from generated ints (op mod 8, argument op / 8):
   0-2 set near the frontier (three below it, which must be ignored),
   3 reserve, 4 fill a run of up to 299 slots from the frontier (long
   enough to cross chunk boundaries), 5-6 advance, 7 truncate within
   four slots of the frontier (at or below the base is a no-op; past
   [next_slot] drops live slots). Entries are ints, executable unless
   divisible by 7, kept as [(Get v, 10 v)]. After every op the log
   must agree with the model on the frontier, base, next slot, filled
   count, every live and executed slot near the window, and both
   iterators. *)
let prop_slot_log_model =
  QCheck.Test.make ~name:"slot log matches a reference map" ~count:150
    QCheck.(list_of_size Gen.(0 -- 60) (int_bound 99_999))
    (fun ops ->
      let kept v = Command.make ~id:v ~client:0 (Command.Get v) in
      let log = Slot_log.create ~keep:(kept, fun v -> 10 * v) () in
      let model = Hashtbl.create 64 in
      let base = ref 0 and frontier = ref 0 and high = ref 0 in
      let executable v = v mod 7 <> 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let set i v =
        Slot_log.set log i v;
        if i >= !frontier then begin
          Hashtbl.replace model i v;
          if i >= !high then high := i + 1
        end
      in
      let sorted l = List.sort compare l in
      let check start =
        if
          Slot_log.exec_frontier log <> !frontier
          || Slot_log.base log <> !base
          || Slot_log.next_slot log <> !high
          || Slot_log.filled_count log <> Hashtbl.length model
        then
          fail "frontier %d/%d base %d/%d next %d/%d filled %d/%d"
            (Slot_log.exec_frontier log) !frontier (Slot_log.base log) !base
            (Slot_log.next_slot log) !high (Slot_log.filled_count log)
            (Hashtbl.length model);
        for i = max 0 (!base - 2) to !high + 2 do
          let want = if i >= !frontier then Hashtbl.find_opt model i else None in
          if Slot_log.get log i <> want then fail "get %d" i;
          if i >= !base && i < !frontier then begin
            let v = Hashtbl.find model i in
            if
              (Slot_log.chosen_cmd log i).Command.id <> v
              || Slot_log.chosen_tag log i <> 10 * v
            then fail "chosen %d" i
          end
          else
            match Slot_log.chosen_cmd log i with
            | _ -> fail "chosen_cmd %d outside the executed prefix" i
            | exception Invalid_argument _ -> ()
        done;
        let live = ref [] and chosen = ref [] in
        Slot_log.iter_from log ~start ~f:(fun i v -> live := (i, v) :: !live);
        Slot_log.iter_chosen log ~start ~f:(fun i c tag ->
            chosen := (i, c.Command.id, tag) :: !chosen);
        let model_list keep =
          Hashtbl.fold (fun i v acc -> if keep i then (i, v) :: acc else acc) model []
        in
        if
          List.rev !live
          <> sorted (model_list (fun i -> i >= max start !frontier))
        then fail "iter_from %d" start;
        if
          List.rev !chosen
          <> List.map
               (fun (i, v) -> (i, v, 10 * v))
               (sorted
                  (model_list (fun i -> i >= max start !base && i < !frontier)))
        then fail "iter_chosen %d" start
      in
      List.iter
        (fun op ->
          let x = op / 8 in
          (match op mod 8 with
          | 0 | 1 | 2 -> set (max 0 (!frontier + (x mod 12) - 3)) x
          | 3 ->
              let s = Slot_log.reserve log in
              if s <> !high then fail "reserve %d, want %d" s !high;
              incr high
          | 4 ->
              for k = 0 to (x mod 300) - 1 do
                set (!frontier + k) ((7 * k) + 1)
              done
          | 5 | 6 ->
              let got = ref [] and want = ref [] in
              Slot_log.advance_frontier log ~executable ~f:(fun i v ->
                  got := (i, v) :: !got);
              let continue = ref true in
              while !continue do
                match Hashtbl.find_opt model !frontier with
                | Some v when !frontier < !high && executable v ->
                    want := (!frontier, v) :: !want;
                    incr frontier
                | _ -> continue := false
              done;
              if !got <> !want then fail "advance"
          | _ ->
              let upto = max 0 (!frontier + (x mod 9) - 4) in
              Slot_log.truncate log ~upto;
              if upto > !base then begin
                Hashtbl.filter_map_inplace
                  (fun i v -> if i < upto then None else Some v)
                  model;
                base := upto;
                frontier := max !frontier upto;
                high := max !high upto
              end);
          check (!base - 1 + (x mod (!high - !base + 3))))
        ops;
      true)

(* Truncating a 10k-slot executed prefix frees it: what the log still
   reaches is its live window (ten entries in a minimum-size ring),
   not the 16k-slot ring the burst grew nor the executed columns. *)
let test_slot_log_truncate_frees () =
  let kept i = Command.make ~id:i ~client:0 (Command.Get i) in
  let log = Slot_log.create ~keep:(kept, fun i -> i) () in
  for i = 0 to 9_999 do
    Slot_log.set log i i
  done;
  Slot_log.advance_frontier log ~executable:(fun _ -> true) ~f:(fun _ _ -> ());
  for i = 10_000 to 10_009 do
    Slot_log.set log i i
  done;
  let before = Obj.reachable_words (Obj.repr log) in
  Slot_log.truncate log ~upto:10_000;
  let after = Obj.reachable_words (Obj.repr log) in
  Alcotest.(check bool)
    (Printf.sprintf "executed prefix held (%d words)" before)
    true (before > 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "live window only after truncation (%d words)" after)
    true (after <= 200);
  Alcotest.(check (option int)) "live slot survives" (Some 10_005)
    (Slot_log.get log 10_005)

(* A log that executes a handful of slots — one of wpaxos's per-key
   logs — keeps a handful of words for them, not a whole chunk: with
   one chunk per key a 9-replica wpaxos run peaked at 173 MB. *)
let test_slot_log_short_prefix_small () =
  let kept i = Command.make ~id:i ~client:0 (Command.Get i) in
  let log = Slot_log.create ~keep:(kept, fun i -> i) () in
  let empty = Obj.reachable_words (Obj.repr log) in
  for i = 0 to 2 do
    Slot_log.set log i i
  done;
  Slot_log.advance_frontier log ~executable:(fun _ -> true) ~f:(fun _ _ -> ());
  let words = Obj.reachable_words (Obj.repr log) - empty in
  Alcotest.(check bool)
    (Printf.sprintf "three executed slots cost %d words" words)
    true (words <= 64);
  Alcotest.(check int) "still readable" 2 (Slot_log.chosen_tag log 2)

(* Kv versions, derived from the writer array, equal a list-model
   chain built from the same writes: value, seq and writer of every
   version, oldest first, plus the latest value and the key count. *)
let prop_kv_versions_model =
  QCheck.Test.make ~name:"kv versions match a list chain" ~count:200
    QCheck.(list (pair (int_bound 5) (int_bound 20)))
    (fun writes ->
      let kv = Kv.create () in
      let model = Hashtbl.create 8 in
      List.iteri
        (fun id (k, x) ->
          let writer, value =
            if x mod 4 = 0 then (cmd id (Command.Delete k), None)
            else (cmd id (Command.Put (k, x)), Some x)
          in
          (match value with
          | Some v -> Kv.put kv writer k v
          | None -> Kv.delete kv writer k);
          let chain = Option.value (Hashtbl.find_opt model k) ~default:[] in
          Hashtbl.replace model k
            ({ Kv.value; seq = List.length chain + 1; writer } :: chain))
        writes;
      Kv.size kv = Hashtbl.length model
      && List.for_all
           (fun k ->
             let chain = Option.value (Hashtbl.find_opt model k) ~default:[] in
             Kv.versions kv k = List.rev chain
             && Kv.get kv k
                = match chain with v :: _ -> v.Kv.value | [] -> None)
           [ 0; 1; 2; 3; 4; 5 ])

let test_kv_writer_must_match () =
  let kv = Kv.create () in
  Alcotest.check_raises "put with a foreign writer"
    (Invalid_argument "Kv.put: writer is not Put (k, v)") (fun () ->
      Kv.put kv (cmd 1 (Command.Put (1, 10))) 1 11);
  Alcotest.check_raises "delete with a put writer"
    (Invalid_argument "Kv.delete: writer is not Delete k") (fun () ->
      Kv.delete kv (cmd 2 (Command.Put (1, 10))) 1);
  Alcotest.(check int) "nothing recorded" 0 (Kv.size kv)

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
      QCheck_alcotest.to_alcotest prop_executor_model;
      Alcotest.test_case "ballot ordering" `Quick test_ballot_ordering;
      Alcotest.test_case "slot log basics" `Quick test_slot_log;
      Alcotest.test_case "slot log frontier" `Quick test_slot_log_frontier;
      Alcotest.test_case "slot log growth" `Quick test_slot_log_growth;
      QCheck_alcotest.to_alcotest prop_slot_log_model;
      Alcotest.test_case "slot log truncation frees" `Quick
        test_slot_log_truncate_frees;
      Alcotest.test_case "slot log short prefix small" `Quick
        test_slot_log_short_prefix_small;
      QCheck_alcotest.to_alcotest prop_kv_versions_model;
      Alcotest.test_case "kv writer must match" `Quick test_kv_writer_must_match;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "config quorums" `Quick test_config_quorums;
    ] )
