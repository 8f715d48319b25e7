type message =
  | Accept of { slot : int; cmd : Command.t; commit_up_to : int }
  | AcceptOk of { slot : int }
  | Commit of { slot : int; cmd : Command.t }

type entry = {
  mutable cmd : Command.t;
  mutable client : Address.t option;
  mutable quorum : Quorum.t option;
  mutable committed : bool;
  mutable rkey : int;
      (* reliable-delivery key of the in-flight Accept (0 when none) *)
}

let message_label = function
  | Accept _ -> "Accept"
  | AcceptOk _ -> "AcceptOk"
  | Commit _ -> "Commit"

type t = {
  id : int;
  members : int list;
  leader : int;
  send : int -> message -> unit;
  post_peers : message -> int;
      (* reliable multicast of a wrapped message to the other members;
         AcceptOks are the piggybacked acks *)
  settle : dst:int -> key:int -> unit;
  settle_all : key:int -> unit;
  log : (entry, unit) Slot_log.t;
      (* executed slots keep nothing: no reader looks below the
         frontier *)
  exec : Executor.t;
  on_executed : Command.t -> Address.t option -> Command.value option -> unit;
  mutable committed_n : int;
}

let create ~env ~wrap ~members ~leader ~exec ~on_executed =
  if not (List.mem leader members) then
    invalid_arg "Group.create: leader not in members";
  let peers = List.filter (fun m -> m <> env.Proto.id) members in
  {
    id = env.Proto.id;
    members;
    leader;
    send = (fun dst m -> env.Proto.send dst (wrap m));
    post_peers =
      (fun m ->
        if peers = [] then 0
        else
          env.Proto.rel.Proto.post_multi ~ack:Reliable.Piggyback peers (wrap m));
    settle = (fun ~dst ~key -> env.Proto.rel.Proto.settle ~dst ~key);
    settle_all = (fun ~key -> env.Proto.rel.Proto.settle_all ~key);
    log = Slot_log.create ();
    exec;
    on_executed;
    committed_n = 0;
  }

let is_leader t = t.id = t.leader
let leader t = t.leader
let members t = t.members

let peers t = List.filter (fun m -> m <> t.id) t.members

let advance t =
  Slot_log.advance_frontier t.log
    ~executable:(fun (e : entry) -> e.committed)
    ~f:(fun _slot (e : entry) ->
      t.committed_n <- t.committed_n + 1;
      let read = Executor.execute t.exec e.cmd in
      let client = e.client in
      e.client <- None;
      t.on_executed e.cmd client read)

let commit_up_to t bound =
  let changed = ref false in
  (* slots below the frontier are committed by construction (the
     frontier only advances over committed entries) — skip them. *)
  for slot = Slot_log.exec_frontier t.log to bound - 1 do
    match Slot_log.get t.log slot with
    | Some (e : entry) when not e.committed ->
        e.committed <- true;
        e.quorum <- None;
        changed := true
    | _ -> ()
  done;
  if !changed then advance t

let propose t ~client cmd =
  if not (is_leader t) then invalid_arg "Group.propose: not the group leader";
  let slot = Slot_log.reserve t.log in
  let tracker = Quorum.create (Quorum.Majority t.members) in
  Quorum.ack tracker t.id;
  let e = { cmd; client; quorum = Some tracker; committed = false; rkey = 0 } in
  Slot_log.set t.log slot e;
  e.rkey <-
    t.post_peers (Accept { slot; cmd; commit_up_to = Slot_log.exec_frontier t.log });
  (* single-member groups commit instantly *)
  (match Slot_log.get t.log slot with
  | Some (e : entry) when not e.committed && Quorum.satisfied tracker ->
      e.committed <- true;
      e.quorum <- None;
      advance t
  | _ -> ())

(* Executed slots are committed and no longer in the log: accepts and
   commits for them change nothing. *)
let on_accept t ~src ~slot ~cmd ~commit_up_to:bound =
  (if not (Slot_log.executed t.log slot) then
     match Slot_log.get t.log slot with
     | Some (e : entry) when e.committed -> ()
     | Some e ->
         if not (Command.equal e.cmd cmd) then e.client <- None;
         e.cmd <- cmd
     | None ->
         Slot_log.set t.log slot
           { cmd; client = None; quorum = None; committed = false; rkey = 0 });
  commit_up_to t bound;
  t.send src (AcceptOk { slot })

(* A late ack for an executed slot needs nothing: the commit's
   [settle_all] already closed its post. *)
let on_accept_ok t ~src ~slot =
  if is_leader t && not (Slot_log.executed t.log slot) then
    match Slot_log.get t.log slot with
    | Some ({ quorum = Some tracker; committed = false; _ } as e : entry) ->
        t.settle ~dst:src ~key:e.rkey;
        Quorum.ack tracker src;
        if Quorum.satisfied tracker then begin
          e.committed <- true;
          e.quorum <- None;
          t.settle_all ~key:e.rkey;
          e.rkey <- 0;
          advance t;
          List.iter (fun m -> t.send m (Commit { slot; cmd = e.cmd })) (peers t)
        end
    | Some ({ committed = true; rkey; _ } : entry) when rkey <> 0 ->
        (* late ack for an already-committed slot: stop the timer *)
        t.settle ~dst:src ~key:rkey
    | _ -> ()

let on_commit t ~slot ~cmd =
  (if not (Slot_log.executed t.log slot) then
     match Slot_log.get t.log slot with
     | Some (e : entry) ->
         if not (Command.equal e.cmd cmd) then e.client <- None;
         e.cmd <- cmd;
         e.committed <- true;
         e.quorum <- None
     | None ->
         Slot_log.set t.log slot
           { cmd; client = None; quorum = None; committed = true; rkey = 0 });
  advance t

let on_message t ~src = function
  | Accept { slot; cmd; commit_up_to } -> on_accept t ~src ~slot ~cmd ~commit_up_to
  | AcceptOk { slot } -> on_accept_ok t ~src ~slot
  | Commit { slot; cmd } -> on_commit t ~slot ~cmd

let committed_count t = t.committed_n
let last_proposed_slot t = Slot_log.next_slot t.log - 1
let frontier t = Slot_log.exec_frontier t.log
