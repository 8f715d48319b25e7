(* What a replica keeps per applied command for its whole life is one
   bit: [executed] maps [uid asr 5] to a word whose bit [uid land 31]
   says the command ran. A client's ids are consecutive, so 32 of its
   commands share one table entry. Only a read that returned [Some v]
   also keeps [v], unboxed, in [reads]; every other command's result
   is [None]. Uids are negative for internal writers ([client < 0]),
   so the key and bit come from [asr]/[land], which floor, never from
   [/]/[mod], which truncate towards zero. *)
type t = {
  mutable sm : State_machine.t;
  executed : (int, int) Hashtbl.t;
  reads : (int, Command.value) Hashtbl.t;
  mutable count : int;
}

let create () =
  {
    sm = State_machine.create ();
    executed = Hashtbl.create 16;
    reads = Hashtbl.create 16;
    count = 0;
  }

let word t key =
  match Hashtbl.find_opt t.executed key with Some w -> w | None -> 0

let already_executed t c =
  (not (Command.is_noop c))
  &&
  let uid = Command.uid c in
  word t (uid asr 5) land (1 lsl (uid land 31)) <> 0

let execute t c =
  if Command.is_noop c then None
  else
    let uid = Command.uid c in
    let key = uid asr 5 and bit = 1 lsl (uid land 31) in
    let w = word t key in
    if w land bit <> 0 then Hashtbl.find_opt t.reads uid
    else begin
      Hashtbl.replace t.executed key (w lor bit);
      t.count <- t.count + 1;
      let { State_machine.read; _ } = State_machine.apply t.sm c in
      (match read with Some v -> Hashtbl.add t.reads uid v | None -> ());
      read
    end

let read t (c : Command.t) =
  match c.Command.op with
  | Command.Get k -> Kv.get (State_machine.store t.sm) k
  | Command.Put _ | Command.Delete _ -> None

let state_machine t = t.sm
let executed_count t = t.count

let image t = State_machine.applied t.sm

let install t image =
  t.sm <- State_machine.create ();
  Hashtbl.reset t.executed;
  Hashtbl.reset t.reads;
  t.count <- 0;
  Array.iter (fun c -> ignore (execute t c)) image
