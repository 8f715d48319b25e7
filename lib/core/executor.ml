(* The memo holds one entry per applied command for the life of the
   replica, so it is keyed on the packed int {!Command.uid} rather
   than a boxed [(client, id)] pair: three words less per command
   retained. *)
type t = {
  mutable sm : State_machine.t;
  memo : (int, Command.value option) Hashtbl.t;
}

let create () = { sm = State_machine.create (); memo = Hashtbl.create 256 }

let already_executed t c =
  (not (Command.is_noop c)) && Hashtbl.mem t.memo (Command.uid c)

let execute t c =
  if Command.is_noop c then None
  else
    match Hashtbl.find_opt t.memo (Command.uid c) with
    | Some r -> r
    | None ->
        let { State_machine.read; _ } = State_machine.apply t.sm c in
        Hashtbl.add t.memo (Command.uid c) read;
        read

let read t (c : Command.t) =
  match c.Command.op with
  | Command.Get k -> Kv.get (State_machine.store t.sm) k
  | Command.Put _ | Command.Delete _ -> None

let state_machine t = t.sm
let executed_count t = Hashtbl.length t.memo

let image t = State_machine.applied t.sm

let install t image =
  t.sm <- State_machine.create ();
  Hashtbl.reset t.memo;
  Array.iter (fun c -> ignore (execute t c)) image
