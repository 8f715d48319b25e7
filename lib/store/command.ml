type key = int
type value = int
type op = Get of key | Put of key * value | Delete of key
type t = { id : int; client : int; op : op }

let make ~id ~client op = { id; client; op }
let uid_of ~client ~id = (client lsl 32) lor (id land 0xFFFF_FFFF)
let uid t = uid_of ~client:t.client ~id:t.id
let key t = match t.op with Get k | Put (k, _) | Delete k -> k
let is_write t = match t.op with Put _ | Delete _ -> true | Get _ -> false
let is_read t = not (is_write t)

let noop = { id = -1; client = -1; op = Get (-1) }
let is_noop t = t.id = -1

let conflicts a b =
  (not (is_noop a)) && (not (is_noop b))
  && key a = key b
  && (is_write a || is_write b)

let equal a b = a.id = b.id && a.client = b.client && a.op = b.op

let compare a b =
  match Int.compare a.client b.client with
  | 0 -> Int.compare a.id b.id
  | c -> c

let pp ppf t =
  if is_noop t then Format.fprintf ppf "noop"
  else
    match t.op with
    | Get k -> Format.fprintf ppf "c%d#%d:get(%d)" t.client t.id k
    | Put (k, v) -> Format.fprintf ppf "c%d#%d:put(%d,%d)" t.client t.id k v
    | Delete k -> Format.fprintf ppf "c%d#%d:del(%d)" t.client t.id k
