(* Three regions, by slot number:

   - [0, base): truncated into a snapshot; nothing is kept.
   - [base, frontier): executed. With a [keep] projection each slot is
     two words — its command and its tag — in chunks of [chunk_size]
     slots addressed by absolute slot number; without one nothing is
     kept.
   - [frontier, high): the live window of boxed entries, a ring whose
     capacity is a power of two, slot [i] at [i land (capacity - 1)].

   Chunks never move, so the executed prefix grows without copying,
   and truncation frees whole chunks from the front of the chunk
   directory. *)

let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type ('a, 't) t = {
  mutable ring : 'a option array;
  mutable high : int; (* one past highest occupied slot *)
  mutable frontier : int;
  mutable filled : int;
  mutable base : int; (* slots below this were compacted into a snapshot *)
  keep : (('a -> Command.t) * ('a -> 't)) option;
  mutable cmd_chunks : Command.t array array;
  mutable tag_chunks : 't array array;
  mutable chunk0 : int; (* chunk number of [cmd_chunks.(0)] *)
}

let min_ring = 64

let create ?keep () =
  {
    ring = Array.make min_ring None;
    high = 0;
    frontier = 0;
    filled = 0;
    base = 0;
    keep;
    cmd_chunks = [||];
    tag_chunks = [||];
    chunk0 = 0;
  }

(* Re-seat the live window [frontier, high) into a ring of [cap]
   slots. *)
let reseat t cap =
  let old = t.ring in
  let omask = Array.length old - 1 in
  let ring = Array.make cap None in
  for i = t.frontier to t.high - 1 do
    ring.(i land (cap - 1)) <- old.(i land omask)
  done;
  t.ring <- ring

let ensure t i =
  let cap = Array.length t.ring in
  if i - t.frontier >= cap then begin
    let ncap = ref (cap * 2) in
    while i - t.frontier >= !ncap do
      ncap := !ncap * 2
    done;
    reseat t !ncap
  end

let get t i =
  if i < t.frontier || i >= t.high then None
  else t.ring.(i land (Array.length t.ring - 1))

let set t i v =
  if i < 0 then invalid_arg "Slot_log.set: negative slot";
  if i >= t.frontier then begin
    ensure t i;
    let k = i land (Array.length t.ring - 1) in
    (match t.ring.(k) with None -> t.filled <- t.filled + 1 | Some _ -> ());
    t.ring.(k) <- Some v;
    if i >= t.high then t.high <- i + 1
  end
(* below the frontier: the slot is executed (or folded into a
   snapshot) — a late duplicate carries no new information *)

let next_slot t = t.high

let reserve t =
  let s = t.high in
  ensure t s;
  t.high <- t.high + 1;
  s

let exec_frontier t = t.frontier
let executed t i = i >= t.base && i < t.frontier
let base t = t.base
let filled_count t = t.filled

(* Append the executed slot [t.frontier] to the chunked columns. *)
let push_chosen t cmd tag =
  let s = t.frontier in
  let c = (s lsr chunk_bits) - t.chunk0 in
  let dir = Array.length t.cmd_chunks in
  if c >= dir then begin
    let ndir = max (c + 1) (2 * dir) in
    let grow old = Array.init ndir (fun j -> if j < dir then old.(j) else [||]) in
    t.cmd_chunks <- grow t.cmd_chunks;
    t.tag_chunks <- grow t.tag_chunks
  end;
  let j = s land chunk_mask and n = Array.length t.cmd_chunks.(c) in
  if j >= n then begin
    (* Chunks fill in slot order. The first 64 slots grow their chunk
       by doubling from 8, so a log that executes only a few slots (a
       per-key wpaxos log) stays a few words; past them chunks are
       allocated whole. A whole chunk is small enough (256 words) to
       be allocated in the minor heap. *)
    let cap = ref (if s >= 64 then chunk_size else max 8 (2 * n)) in
    while j >= !cap do
      cap := 2 * !cap
    done;
    let grow old fill =
      let a = Array.make !cap fill in
      Array.blit old 0 a 0 n;
      a
    in
    t.cmd_chunks.(c) <- grow t.cmd_chunks.(c) Command.noop;
    t.tag_chunks.(c) <- grow t.tag_chunks.(c) tag
  end;
  t.cmd_chunks.(c).(j) <- cmd;
  t.tag_chunks.(c).(j) <- tag

let advance_frontier t ~executable ~f =
  let continue = ref true in
  while !continue do
    let i = t.frontier in
    if i >= t.high then continue := false
    else
      match t.ring.(i land (Array.length t.ring - 1)) with
      | Some v when executable v ->
          f i v;
          (* [f] may have grown the ring: index it afresh *)
          let k = i land (Array.length t.ring - 1) in
          (match t.keep with
          | None -> ()
          | Some (cmd, tag) ->
              let e = match t.ring.(k) with Some e -> e | None -> v in
              push_chosen t (cmd e) (tag e));
          t.ring.(k) <- None;
          t.frontier <- i + 1
      | _ -> continue := false
  done

let keeps t = match t.keep with Some _ -> true | None -> false

let check_chosen t i =
  if i < t.base || i >= t.frontier || not (keeps t) then
    invalid_arg "Slot_log: slot is not in the executed prefix"

let chosen_cmd t i =
  check_chosen t i;
  t.cmd_chunks.((i lsr chunk_bits) - t.chunk0).(i land chunk_mask)

let chosen_tag t i =
  check_chosen t i;
  t.tag_chunks.((i lsr chunk_bits) - t.chunk0).(i land chunk_mask)

let iter_chosen t ~start ~f =
  if keeps t then
    for i = max start t.base to t.frontier - 1 do
      let c = (i lsr chunk_bits) - t.chunk0 and j = i land chunk_mask in
      f i t.cmd_chunks.(c).(j) t.tag_chunks.(c).(j)
    done

let iter_from t ~start ~f =
  for i = max start t.frontier to t.high - 1 do
    match t.ring.(i land (Array.length t.ring - 1)) with
    | Some v -> f i v
    | None -> ()
  done

let iter_filled t ~f = iter_from t ~start:t.frontier ~f

(* Drop the chunks wholly below [upto] — all of them when no executed
   slot survives — and blank the dead head of the chunk that straddles
   it, so no truncated command stays reachable. *)
let slide_chunks t ~upto =
  let first = upto lsr chunk_bits in
  let drop = first - t.chunk0 in
  let dir = Array.length t.cmd_chunks in
  if t.frontier <= upto || drop >= dir then begin
    t.cmd_chunks <- [||];
    t.tag_chunks <- [||]
  end
  else begin
    if drop > 0 then begin
      t.cmd_chunks <- Array.sub t.cmd_chunks drop (dir - drop);
      t.tag_chunks <- Array.sub t.tag_chunks drop (dir - drop)
    end;
    let head = t.cmd_chunks.(0) in
    if Array.length head > 0 then
      Array.fill head 0 (upto land chunk_mask) Command.noop
  end;
  t.chunk0 <- first

let truncate t ~upto =
  if upto > t.base then begin
    t.filled <- t.filled - (min upto t.frontier - t.base);
    let mask = Array.length t.ring - 1 in
    for i = t.frontier to min upto t.high - 1 do
      match t.ring.(i land mask) with
      | Some _ ->
          t.ring.(i land mask) <- None;
          t.filled <- t.filled - 1
      | None -> ()
    done;
    if keeps t then slide_chunks t ~upto;
    t.base <- upto;
    if t.frontier < upto then t.frontier <- upto;
    if t.high < upto then t.high <- upto;
    (* a burst may have grown the ring far past the live window *)
    let live = t.high - t.frontier and cap = Array.length t.ring in
    if cap > min_ring && cap > 4 * live then begin
      let ncap = ref min_ring in
      while !ncap < 2 * live do
        ncap := !ncap * 2
      done;
      reseat t !ncap
    end
  end
