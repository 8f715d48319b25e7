type version = {
  value : Command.value option;
  seq : int;
  writer : Command.t;
}

(* A key's version chain is the array of its writers, oldest first:
   version [seq] was written by [writers.(seq - 1)], and its value is
   derived from that command. [latest] caches the newest version's
   value so reads neither derive nor allocate it. *)
type chain = {
  mutable writers : Command.t array;
  mutable n : int;
  mutable latest : Command.value option;
}

type t = { table : (Command.key, chain) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let value_of (writer : Command.t) =
  match writer.Command.op with
  | Command.Put (_, v) -> Some v
  | Command.Delete _ | Command.Get _ -> None

let get t k =
  match Hashtbl.find_opt t.table k with Some c -> c.latest | None -> None

let append t writer k =
  let c =
    match Hashtbl.find_opt t.table k with
    | Some c -> c
    | None ->
        let c = { writers = [||]; n = 0; latest = None } in
        Hashtbl.add t.table k c;
        c
  in
  let cap = Array.length c.writers in
  if c.n = cap then begin
    let grown = Array.make (max 2 (2 * cap)) Command.noop in
    Array.blit c.writers 0 grown 0 cap;
    c.writers <- grown
  end;
  c.writers.(c.n) <- writer;
  c.n <- c.n + 1;
  c.latest <- value_of writer

let put t writer k v =
  (match writer.Command.op with
  | Command.Put (k', v') when k' = k && v' = v -> ()
  | _ -> invalid_arg "Kv.put: writer is not Put (k, v)");
  append t writer k

let delete t writer k =
  (match writer.Command.op with
  | Command.Delete k' when k' = k -> ()
  | _ -> invalid_arg "Kv.delete: writer is not Delete k");
  append t writer k

let versions t k =
  match Hashtbl.find_opt t.table k with
  | Some c ->
      List.init c.n (fun i ->
          let writer = c.writers.(i) in
          { value = value_of writer; seq = i + 1; writer })
  | None -> []

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table []
let size t = Hashtbl.length t.table
