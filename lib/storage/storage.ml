(* Stable storage as a second service queue.

   The paper's dissection framework treats every latency source as a
   service station on the critical path; *The Performance of Paxos in
   the Cloud* (PAPERS.md) shows the fsync is the dominant one in real
   deployments. This module models one replica's write-ahead log +
   disk: protocols append records ([write]) and then [sync] — the ack
   they owe the leader (P1b/P2b/VoteReply/AppendReply) may only be
   sent from the sync continuation, which fires after the simulated
   fsync completes. The device is FIFO with one in-flight fsync
   ([busy_until]), so back-to-back syncs queue exactly like a second
   Procq.

   Three durability disciplines ([sync_mode]):
   - [Sync_none]   — the continuation runs synchronously; no events,
                     no RNG draws, no latency. Byte-identical to the
                     pre-storage simulator on fault-free runs (CI-gated).
   - [Sync_every]  — every sync is its own fsync of [fsync_ms] (+
                     uniform jitter).
   - [Sync_batched]— group commit: syncs arriving within
                     [batch_window_ms] share one fsync.

   Crash semantics: records reach the durable image only when their
   fsync *completes*. [crash] discards the unsynced tail (pending +
   in-flight), counts it in [lost_writes], and bumps an epoch so any
   stray completion event is inert (the cluster also mass-cancels the
   owner's timers — the epoch is defense in depth). Recovery reads
   back only [regs] (small named integers: ballots, terms, votes), the
   retained log entries, and the latest snapshot.

   The durable log is columnar: [int array]s for the tags [a] and [b]
   and a [Command.t array], indexed by [slot - log_base] and grown by
   doubling, so a durable slot costs three words rather than a hash
   bucket plus an entry record. [Truncate] moves the live suffix to
   fresh columns, freeing the prefix. paxos and fpaxos never truncate,
   so for them this is the whole per-slot cost of durability. An
   [Entry] record exists only on the write path, between [write] and
   fsync completion, and [iter_entries] rebuilds one per slot at
   recovery.

   The record vocabulary is deliberately protocol-agnostic — integer
   registers, (index, a, b, cmd) log entries, snapshot images of
   applied commands — so this library sits below [paxi] and every
   protocol maps its own persistent state onto it. *)

type sync_mode = Sync_none | Sync_batched | Sync_every

let mode_to_string = function
  | Sync_none -> "none"
  | Sync_batched -> "batched"
  | Sync_every -> "every"

let mode_of_string = function
  | "none" -> Ok Sync_none
  | "batched" -> Ok Sync_batched
  | "every" -> Ok Sync_every
  | s -> Error (Printf.sprintf "unknown sync_mode %S (none|batched|every)" s)

type config = {
  sync_mode : sync_mode;
  fsync_ms : float;  (** mean service time of one fsync *)
  fsync_jitter_ms : float;  (** uniform [0, jitter) added per fsync *)
  batch_window_ms : float;  (** group-commit window for [Sync_batched] *)
  snapshot_threshold : int;
      (** snapshot + truncate once the retained log exceeds this many
          entries; 0 disables snapshots *)
  replay_ms_per_cmd : float;
      (** simulated cost of replaying one log entry at recovery *)
}

let default_config =
  {
    sync_mode = Sync_every;
    (* cloud-SSD ballpark: an order of magnitude above the LAN RTT's
       0.0427ms one-way, per the Paxos-in-the-cloud measurements *)
    fsync_ms = 0.5;
    fsync_jitter_ms = 0.0;
    batch_window_ms = 0.2;
    snapshot_threshold = 0;
    replay_ms_per_cmd = 0.01;
  }

let validate_config c =
  if c.fsync_ms < 0.0 then Error "storage.fsync_ms must be >= 0"
  else if c.fsync_jitter_ms < 0.0 then
    Error "storage.fsync_jitter_ms must be >= 0"
  else if c.batch_window_ms <= 0.0 && c.sync_mode = Sync_batched then
    Error "storage.batch_window_ms must be > 0 in batched mode"
  else if c.snapshot_threshold < 0 then
    Error "storage.snapshot_threshold must be >= 0"
  else if c.replay_ms_per_cmd < 0.0 then
    Error "storage.replay_ms_per_cmd must be >= 0"
  else Ok c

let config_to_json c =
  Json.Obj
    [
      ("mode", Json.String (mode_to_string c.sync_mode));
      ("fsync_ms", Json.Number c.fsync_ms);
      ("fsync_jitter_ms", Json.Number c.fsync_jitter_ms);
      ("batch_window_ms", Json.Number c.batch_window_ms);
      ("snapshot_threshold", Json.Number (float_of_int c.snapshot_threshold));
      ("replay_ms_per_cmd", Json.Number c.replay_ms_per_cmd);
    ]

let config_of_json j =
  let ( let* ) = Result.bind in
  let floatf name default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> (
        match Json.to_float v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "storage.%s must be a number" name))
  in
  let* sync_mode =
    match Json.member "mode" j with
    | None -> Ok default_config.sync_mode
    | Some v -> (
        match Json.get_string v with
        | Some s -> mode_of_string s
        | None -> Error "storage.mode must be a string")
  in
  let* fsync_ms = floatf "fsync_ms" default_config.fsync_ms in
  let* fsync_jitter_ms =
    floatf "fsync_jitter_ms" default_config.fsync_jitter_ms
  in
  let* batch_window_ms =
    floatf "batch_window_ms" default_config.batch_window_ms
  in
  let* snapshot_threshold =
    match Json.member "snapshot_threshold" j with
    | None -> Ok default_config.snapshot_threshold
    | Some v -> (
        match Json.to_int v with
        | Some i -> Ok i
        | None -> Error "storage.snapshot_threshold must be an integer")
  in
  let* replay_ms_per_cmd =
    floatf "replay_ms_per_cmd" default_config.replay_ms_per_cmd
  in
  validate_config
    {
      sync_mode;
      fsync_ms;
      fsync_jitter_ms;
      batch_window_ms;
      snapshot_threshold;
      replay_ms_per_cmd;
    }

(* ---- records --------------------------------------------------------- *)

type entry = { a : int; b : int; cmd : Command.t }

type op =
  | Reg of int * int  (** register [idx] := value *)
  | Entry of int * entry  (** log slot [index] := entry *)
  | Truncate of int  (** discard log slots below [upto] *)
  | Snapshot of int * int * Command.t array
      (** state-machine image through slot [last_index] (inclusive),
          with [a] the protocol tag of that slot (raft: its term); the
          image is the applied-command prefix, replayable in order *)

type t = {
  config : config;
  sim : Sim.t;
  schedule : float -> (unit -> unit) -> unit;
      (* crash-domain-tracked scheduler: every completion event it
         creates dies with the owner at the crash edge *)
  rng : Rng.t option; (* allocated only when a jitter draw can happen *)
  (* durable image; the log is three parallel columns, slot [i] at
     index [i - log_base], and [hole] marks an index never written *)
  mutable regs : int array;
  mutable col_a : int array;
  mutable col_b : int array;
  mutable col_cmd : Command.t array;
  mutable live : int; (* durable entries in [log_base, log_top) *)
  mutable log_base : int;
  mutable log_top : int; (* one past the highest durable slot *)
  mutable snap : (int * int * Command.t array) option;
  (* unsynced tail and device state (volatile) *)
  mutable pending : op list; (* newest first *)
  mutable n_pending : int;
  mutable waiters : (unit -> unit) list; (* batched-mode, newest first *)
  mutable flush_scheduled : bool;
  mutable busy_until : float;
  mutable epoch : int;
  (* metrics *)
  mutable writes : int;
  mutable fsyncs : int;
  mutable busy_ms : float;
  mutable lost_writes : int;
  mutable in_flight : int;
}

let create ~config ~sim ~schedule ~rng_parent =
  let rng =
    (* mode=none never draws; jitter=0 never draws. Only split the
       parent stream when a draw can actually happen, so storage-off
       and jitter-free configurations leave every other RNG stream
       untouched (byte-identity discipline, DESIGN.md §10). *)
    if config.sync_mode <> Sync_none && config.fsync_jitter_ms > 0.0 then
      Some (Rng.split rng_parent)
    else None
  in
  {
    config;
    sim;
    schedule;
    rng;
    regs = Array.make 4 0;
    col_a = [||];
    col_b = [||];
    col_cmd = [||];
    live = 0;
    log_base = 0;
    log_top = 0;
    snap = None;
    pending = [];
    n_pending = 0;
    waiters = [];
    flush_scheduled = false;
    busy_until = 0.0;
    epoch = 0;
    writes = 0;
    fsyncs = 0;
    busy_ms = 0.0;
    lost_writes = 0;
    in_flight = 0;
  }

let mode t = t.config.sync_mode
let snapshot_threshold t = t.config.snapshot_threshold

(* ---- durable image mutation (runs at fsync completion) --------------- *)

(* A hole is a slot between entries that was never written. It is
   this private command, compared physically, not [Command.noop], which
   paxos persists to fill gaps. *)
let hole = Command.make ~id:min_int ~client:min_int (Command.Get min_int)

(* The column length for [n] slots: a power of two, at least 64. *)
let capacity n =
  let c = ref 64 in
  while !c < n do
    c := 2 * !c
  done;
  !c

(* Move the columns to fresh arrays of [cap] slots holding slots
   [base ..] of the old ones: growth keeps the base, truncation raises
   it and so drops the dead prefix. *)
let relocate t ~base ~cap =
  let a = Array.make cap 0 and b = Array.make cap 0 in
  let cmd = Array.make cap hole in
  let from = base - t.log_base in
  let n = min (Array.length t.col_cmd - from) cap in
  if n > 0 then begin
    Array.blit t.col_a from a 0 n;
    Array.blit t.col_b from b 0 n;
    Array.blit t.col_cmd from cmd 0 n
  end;
  t.col_a <- a;
  t.col_b <- b;
  t.col_cmd <- cmd

let durable_apply t op =
  match op with
  | Reg (idx, v) ->
      if idx >= Array.length t.regs then begin
        let grown = Array.make (2 * (idx + 1)) 0 in
        Array.blit t.regs 0 grown 0 (Array.length t.regs);
        t.regs <- grown
      end;
      t.regs.(idx) <- v
  | Entry (index, e) ->
      if index >= t.log_base then begin
        let i = index - t.log_base in
        let cap = Array.length t.col_cmd in
        if i >= cap then
          relocate t ~base:t.log_base ~cap:(capacity (max (i + 1) (2 * cap)));
        if t.col_cmd.(i) == hole then t.live <- t.live + 1;
        t.col_a.(i) <- e.a;
        t.col_b.(i) <- e.b;
        t.col_cmd.(i) <- e.cmd;
        if index >= t.log_top then t.log_top <- index + 1
      end
  | Truncate upto ->
      if upto > t.log_base then begin
        for i = 0 to min upto t.log_top - t.log_base - 1 do
          if t.col_cmd.(i) != hole then t.live <- t.live - 1
        done;
        let span = t.log_top - upto in
        relocate t ~base:upto ~cap:(if span > 0 then capacity span else 0);
        t.log_base <- upto;
        if t.log_top < upto then t.log_top <- upto
      end
  | Snapshot (last_index, a, image) -> t.snap <- Some (last_index, a, image)

(* ---- write path ------------------------------------------------------ *)

let write t op =
  t.writes <- t.writes + 1;
  t.pending <- op :: t.pending;
  t.n_pending <- t.n_pending + 1

let jitter_draw t =
  match t.rng with None -> 0.0 | Some rng -> Rng.float rng t.config.fsync_jitter_ms

(* One fsync covering [ops]; run the continuations [ks] (oldest first)
   once it completes. FIFO device: starts when the previous fsync
   finishes. *)
let begin_fsync t ops ks =
  let now = Sim.now t.sim in
  let dur = t.config.fsync_ms +. jitter_draw t in
  let start = Float.max now t.busy_until in
  let done_at = start +. dur in
  t.busy_until <- done_at;
  t.fsyncs <- t.fsyncs + 1;
  t.busy_ms <- t.busy_ms +. dur;
  let n = List.length ops in
  t.in_flight <- t.in_flight + n;
  let epoch = t.epoch in
  t.schedule (done_at -. now) (fun () ->
      if t.epoch = epoch then begin
        t.in_flight <- t.in_flight - n;
        List.iter (durable_apply t) ops;
        List.iter (fun k -> k ()) ks
      end)

let take_pending t =
  let ops = List.rev t.pending in
  t.pending <- [];
  t.n_pending <- 0;
  ops

let sync t k =
  match t.config.sync_mode with
  | Sync_none ->
      (* free durability: apply synchronously, no event, no draw *)
      List.iter (durable_apply t) (take_pending t);
      k ()
  | Sync_every -> begin_fsync t (take_pending t) [ k ]
  | Sync_batched ->
      t.waiters <- k :: t.waiters;
      if not t.flush_scheduled then begin
        t.flush_scheduled <- true;
        let epoch = t.epoch in
        t.schedule t.config.batch_window_ms (fun () ->
            if t.epoch = epoch then begin
              t.flush_scheduled <- false;
              let ks = List.rev t.waiters in
              t.waiters <- [];
              begin_fsync t (take_pending t) ks
            end)
      end

let persist t ops k =
  List.iter (write t) ops;
  sync t k

(* ---- crash ----------------------------------------------------------- *)

let crash t =
  t.epoch <- t.epoch + 1;
  t.lost_writes <- t.lost_writes + t.n_pending + t.in_flight;
  t.pending <- [];
  t.n_pending <- 0;
  t.in_flight <- 0;
  t.waiters <- [];
  t.flush_scheduled <- false;
  t.busy_until <- Sim.now t.sim

(* ---- recovery reads -------------------------------------------------- *)

let reg t idx = if idx < Array.length t.regs then t.regs.(idx) else 0
let log_base t = t.log_base
let log_top t = t.log_top
let snapshot t = t.snap
let durable_entries t = t.live

let iter_entries t ~f =
  for i = 0 to t.log_top - t.log_base - 1 do
    let cmd = t.col_cmd.(i) in
    if cmd != hole then
      f (t.log_base + i) { a = t.col_a.(i); b = t.col_b.(i); cmd }
  done

let replay_cost_ms t =
  t.config.replay_ms_per_cmd *. float_of_int t.live

(* ---- metrics --------------------------------------------------------- *)

let writes t = t.writes
let fsyncs t = t.fsyncs
let busy_ms t = t.busy_ms
let lost_writes t = t.lost_writes
let pending_writes t = t.n_pending + t.in_flight
