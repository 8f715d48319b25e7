type message =
  | MAccept of { slot : int; cmd : Command.t; commit_up_to : int }
  | MAcceptOk of { slot : int }
  | MSkip of { from_slot : int; upto : int }
      (** the sender commits no-ops in its owned slots in
          [\[from_slot, upto)] — all unused at the sender, so they can
          never carry a proposal *)
  | MCommit of { slot : int; cmd : Command.t }

let name = "mencius"
let cpu_factor (_ : Config.t) = 1.0

let message_label = function
  | MAccept _ -> "MAccept"
  | MAcceptOk _ -> "MAcceptOk"
  | MSkip _ -> "MSkip"
  | MCommit _ -> "MCommit"

type entry = {
  mutable cmd : Command.t;
  mutable client : Address.t option;
  mutable quorum : Quorum.t option;
  mutable committed : bool;
}

type replica = {
  env : message Proto.env;
  log : (entry, unit) Slot_log.t;
      (* executed slots keep nothing: no reader looks below the
         frontier *)
  exec : Executor.t;
  mutable next_own : int; (* smallest unused owned slot *)
  mutable skips : int;
  mutable committed_n : int;
}

let create (env : _ Proto.env) =
  {
    env;
    log = Slot_log.create ();
    exec = Executor.create ();
    next_own = env.Proto.id;
    skips = 0;
    committed_n = 0;
  }

let executor t = t.exec
let next_owned_slot t = t.next_own
let skips_issued t = t.skips
let committed_count t = t.committed_n
let leader_of_key (t : replica) (_ : Command.key) = Some t.env.id

let all_ids (t : replica) = List.init t.env.n (fun i -> i)

let advance t =
  Slot_log.advance_frontier t.log
    ~executable:(fun (e : entry) -> e.committed)
    ~f:(fun _slot (e : entry) ->
      t.committed_n <- t.committed_n + 1;
      let read = Executor.execute t.exec e.cmd in
      match e.client with
      | Some client ->
          e.client <- None;
          t.env.reply client
            { Proto.command = e.cmd; read; replier = t.env.id; leader_hint = None }
      | None -> ())

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

(* Commit no-ops in [owner_id]'s slots within [from_slot, upto).
   [from_slot] is the owner's first unused slot at announce time, so
   no proposal can ever occupy the skipped range. *)
let apply_skip t ~owner_id ~from_slot ~upto =
  let n = t.env.n in
  (* first owned slot of owner_id at or above from_slot *)
  let slot = ref (owner_id + (((Stdlib.max 0 (from_slot - owner_id)) + n - 1) / n * n)) in
  while !slot < upto do
    (* executed slots are committed: skips change nothing *)
    (if not (Slot_log.executed t.log !slot) then
       match Slot_log.get t.log !slot with
       | Some (e : entry) when e.committed -> ()
       | Some e ->
           e.cmd <- Command.noop;
           e.client <- None;
           e.committed <- true;
           e.quorum <- None
       | None ->
           Slot_log.set t.log !slot
             { cmd = Command.noop; client = None; quorum = None; committed = true });
    slot := !slot + n
  done;
  advance t

let skip_own_below t upto =
  if upto > t.next_own then begin
    t.skips <- t.skips + 1;
    let from_slot = t.next_own in
    apply_skip t ~owner_id:t.env.id ~from_slot ~upto;
    (* our next own slot jumps past everything we skipped *)
    let n = t.env.n in
    let k = (upto - t.env.id + n - 1) / n in
    t.next_own <- t.env.id + (k * n);
    t.env.broadcast (MSkip { from_slot; upto })
  end

let on_request t ~client (request : Proto.request) =
  let slot = t.next_own in
  t.next_own <- slot + t.env.n;
  let tracker = Quorum.create (Quorum.Majority (all_ids t)) in
  Quorum.ack tracker t.env.id;
  Slot_log.set t.log slot
    {
      cmd = request.Proto.command;
      client = Some client;
      quorum = Some tracker;
      committed = false;
    };
  t.env.broadcast
    (MAccept
       { slot; cmd = request.Proto.command; commit_up_to = Slot_log.exec_frontier t.log })

let on_accept t ~src ~slot ~cmd ~commit_up_to:bound =
  (if not (Slot_log.executed t.log slot) then
     match Slot_log.get t.log slot with
     | Some (e : entry) when e.committed -> ()
     | Some e ->
         if not (Command.equal e.cmd cmd) then e.client <- None;
         e.cmd <- cmd
     | None ->
         Slot_log.set t.log slot { cmd; client = None; quorum = None; committed = false });
  commit_up_to t bound;
  (* another owner is at [slot]; skip our own stale slots below it so
     the frontier can advance without us *)
  skip_own_below t slot;
  t.env.send src (MAcceptOk { slot })

let on_accept_ok t ~src ~slot =
  match Slot_log.get t.log slot with
  | Some ({ quorum = Some tracker; committed = false; _ } as e : entry) ->
      Quorum.ack tracker src;
      if Quorum.satisfied tracker then begin
        e.committed <- true;
        e.quorum <- None;
        advance t;
        t.env.broadcast (MCommit { slot; cmd = e.cmd })
      end
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
         Slot_log.set t.log slot { cmd; client = None; quorum = None; committed = true });
  advance t;
  skip_own_below t slot

let on_skip t ~src ~from_slot ~upto =
  apply_skip t ~owner_id:src ~from_slot ~upto

let on_message t ~src = function
  | MAccept { slot; cmd; commit_up_to } -> on_accept t ~src ~slot ~cmd ~commit_up_to
  | MAcceptOk { slot } -> on_accept_ok t ~src ~slot
  | MSkip { from_slot; upto } -> on_skip t ~src ~from_slot ~upto
  | MCommit { slot; cmd } -> on_commit t ~slot ~cmd

let on_start (_ : replica) = ()

(* In-memory protocol: a crash-recovery edge reboots it from scratch
   (no durable state to reload) — the cluster engine only pairs
   [Config.storage] with protocols that persist, so this is a
   rejoin-from-zero fallback. *)
let on_recover = on_start
