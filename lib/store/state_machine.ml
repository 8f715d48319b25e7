type result = { command : Command.t; read : Command.value option }

(* The applied sequence lives for the whole run, so it is an
   amortised-doubling array (one word per command, [applied.(0 .. n-1)]
   oldest first) rather than a list (three words per command). It
   starts empty so creating a replica allocates nothing. *)
type t = { kv : Kv.t; mutable applied : Command.t array; mutable n : int }

let create () = { kv = Kv.create (); applied = [||]; n = 0 }

let push t cmd =
  let cap = Array.length t.applied in
  if t.n = cap then begin
    let grown = Array.make (max 64 (2 * cap)) Command.noop in
    Array.blit t.applied 0 grown 0 cap;
    t.applied <- grown
  end;
  Array.unsafe_set t.applied t.n cmd;
  t.n <- t.n + 1

let apply t cmd =
  let read =
    if Command.is_noop cmd then None
    else
      match cmd.Command.op with
      | Command.Get k -> Kv.get t.kv k
      | Command.Put (k, v) ->
          Kv.put t.kv cmd k v;
          None
      | Command.Delete k ->
          Kv.delete t.kv cmd k;
          None
  in
  push t cmd;
  { command = cmd; read }

let applied t = Array.sub t.applied 0 t.n

let applied_count t = t.n
let store t = t.kv

let key_history t k = List.map (fun v -> v.Kv.writer) (Kv.versions t.kv k)
