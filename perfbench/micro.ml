(* Layer micro-benchmarks: one Bechamel test per layer, each calling
   only the layer's public functions, each reporting host ns and
   minor-heap words per operation. [divisor] turns a test body that
   performs several operations into a per-operation figure.

   Words come from [Gc.minor_words] around a plain loop: Bechamel's
   minor-allocation measure reads [Gc.quick_stat], whose minor-word
   count OCaml 5 only updates at collections. *)

open Bechamel

type cost = { ns : float; words : float }

type micro = {
  name : string;
  layer : string;
  divisor : float;
  body : unit -> unit;
}

let micro ?(divisor = 1.0) ~layer name body = { name; layer; divisor; body }

let words_per_call body =
  let calls = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    body ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let lan2 () = Topology.lan ~n_replicas:2 ()
let r0 = Address.replica 0
let r1 = Address.replica 1

(* 4-ary heap at a steady 1024 entries: pop the earliest, push one
   a random delay later — one push and one pop per call. *)
let heap_push_pop () =
  let q = Event_queue.create ~dummy:0 () in
  let rng = Rng.create ~seed:1 in
  let delays = Array.init 4096 (fun _ -> Rng.float rng 10.0) in
  for i = 0 to 1023 do
    Event_queue.push q ~time:delays.(i) i
  done;
  let i = ref 0 in
  fun () ->
    let t = Event_queue.top_time q in
    Event_queue.drop_top q;
    incr i;
    Event_queue.push q ~time:(t +. delays.(!i land 4095)) !i

(* A timer armed with [Sim.schedule_after] and fired by the scheduler. *)
let timer () =
  let sim = Sim.create ~seed:1 () in
  let fire () = () in
  fun () ->
    ignore (Sim.schedule_after sim ~delay:1.0 fire);
    ignore (Sim.step sim)

(* One message from send to its handler: sender queue, link delay,
   receiver queue and the delivery event(s). *)
let transport () =
  let sim = Sim.create ~seed:1 () in
  let t = Transport.create ~sim ~topology:(lan2 ()) () in
  Transport.register t r1 (fun ~src:_ () -> ());
  (sim, t)

let send_deliver () =
  let sim, t = transport () in
  fun () ->
    Transport.send t ~src:r0 ~dst:r1 ();
    Sim.run sim

(* Simulator events one send-to-handler costs, for the host-cost
   composition: the message's own events are priced by
   [net.send_deliver], the rest of a run's events by [sim.timer]. *)
let events_per_message () =
  let sim, t = transport () in
  let before = Sim.events_fired sim in
  let sends = 10_000 in
  for _ = 1 to sends do
    Transport.send t ~src:r0 ~dst:r1 ();
    Sim.run sim
  done;
  float_of_int (Sim.events_fired sim - before) /. float_of_int sends

let procq_occupy () =
  let q = Procq.create () in
  let now = ref 0.0 in
  let dst = [| 0.0 |] in
  fun () ->
    Procq.occupy_incoming_into q ~now_ms:!now ~size_bytes:128 dst;
    now := !now +. 0.01

(* A phase-2 round at n = 9: create the tracker, then eight votes with
   a [satisfied] poll after each; reported per vote. *)
let quorum_votes = 8

let quorum_round () =
  let spec = Paxi_quorum.Quorum.Majority (List.init 9 Fun.id) in
  fun () ->
    let q = Paxi_quorum.Quorum.create spec in
    for v = 1 to quorum_votes do
      Paxi_quorum.Quorum.ack q v;
      ignore (Paxi_quorum.Quorum.satisfied q)
    done

(* A piggyback-acked post: send with a retransmit timer armed, settle
   it (cancelling the timer) and deliver the message. *)
let reliable_post_settle () =
  let sim = Sim.create ~seed:1 () in
  let t = Transport.create ~sim ~topology:(lan2 ()) () in
  Transport.register t r1 (fun ~src:_ _ -> ());
  let ep =
    Reliable.create ~transport:t ~self:r0
      ~policy:{ Reliable.base_ms = 40.0; max_ms = 320.0; max_tries = 25 }
      ~inject:Fun.id
  in
  fun () ->
    let key = Reliable.post ep ~ack:Reliable.Piggyback ~dst:r1 () in
    Reliable.settle ep ~dst:r1 ~key;
    Sim.run sim

(* One log record written and group-committed (Sync_batched): the
   record, the window's fsync event and its completion. *)
let storage_write_sync () =
  let sim = Sim.create ~seed:1 () in
  let st =
    Storage.create
      ~config:
        { Storage.default_config with Storage.sync_mode = Storage.Sync_batched }
      ~sim
      ~schedule:(fun delay k -> ignore (Sim.schedule_after sim ~delay k))
      ~rng_parent:(Rng.create ~seed:1)
  in
  let entry =
    { Storage.a = 1; b = 0; cmd = Command.make ~id:0 ~client:0 (Command.Put (1, 1)) }
  in
  let i = ref 0 in
  let synced () = () in
  fun () ->
    incr i;
    Storage.write st (Storage.Entry (!i land 1023, entry));
    Storage.sync st synced;
    Sim.run sim

(* Fill the next slot and advance the execution frontier over it;
   the executed prefix is truncated every 4096 slots. *)
let slot_set_advance () =
  let log = Slot_log.create () in
  let i = ref 0 in
  let executable _ = true in
  let apply _ _ = () in
  fun () ->
    Slot_log.set log !i !i;
    Slot_log.advance_frontier log ~executable ~f:apply;
    incr i;
    if !i land 4095 = 0 then Slot_log.truncate log ~upto:!i

(* Apply a fresh write; a new executor every 4096 commands bounds the
   memo table and applied history. *)
let execute () =
  let ex = ref (Executor.create ()) in
  let i = ref 0 in
  fun () ->
    incr i;
    if !i land 4095 = 0 then ex := Executor.create ();
    ignore
      (Executor.execute !ex
         (Command.make ~id:!i ~client:0 (Command.Put (!i land 1023, !i))))

let route () =
  let p = Paxi_shard.Partitioner.hash ~shards:4 in
  let i = ref 0 in
  fun () ->
    incr i;
    ignore (Paxi_shard.Partitioner.route p (!i land 1023))

let next_op () =
  let gen =
    Paxi_benchmark.Workload.generator Paxi_benchmark.Workload.default
      ~rng:(Rng.create ~seed:1) ~client:0
  in
  fun () -> ignore (Paxi_benchmark.Workload.next_op gen ~now_ms:0.0)

let all () =
  [
    micro ~layer:"sim" "sim.heap_push_pop" (heap_push_pop ());
    micro ~layer:"sim" "sim.timer" (timer ());
    micro ~layer:"net" "net.send_deliver" (send_deliver ());
    micro ~layer:"net" "net.procq_occupy" (procq_occupy ());
    micro ~layer:"net" "net.reliable_post_settle" (reliable_post_settle ());
    micro ~layer:"quorum" ~divisor:(float_of_int quorum_votes) "quorum.ack"
      (quorum_round ());
    micro ~layer:"storage" "storage.write_sync" (storage_write_sync ());
    micro ~layer:"core" "core.slot_set_advance" (slot_set_advance ());
    micro ~layer:"core" "core.execute" (execute ());
    micro ~layer:"shard" "shard.route" (route ());
    micro ~layer:"benchmark" "benchmark.next_op" (next_op ());
  ]

let estimate ols witness raw =
  match Analyze.OLS.estimates (Analyze.one ols witness raw) with
  | Some [ e ] -> e
  | _ -> Float.nan

(* Run every micro-benchmark; [quota_s] is each one's time budget. *)
let measure ~quota_s =
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1_000 ~quota:(Time.second quota_s) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.map
    (fun m ->
      let test = Test.make ~name:m.name (Staged.stage m.body) in
      let raw =
        Spans.around ~cat:m.layer m.name (fun () ->
            Benchmark.run cfg [ clock ] (List.hd (Test.elements test)))
      in
      ( m.name,
        {
          ns = estimate ols clock raw /. m.divisor;
          words = words_per_call m.body /. m.divisor;
        } ))
    (all ())
