(* Host-time spans around the benchmark's own calls into the simulator
   libraries. Spans are kept in memory while the benchmark runs and
   written out once, at exit, as a Chrome-trace document (load it in
   chrome://tracing or Perfetto). Recording is off unless [enable] was
   called, so the timed runs pay nothing for it. *)

type span = { name : string; cat : string; start_s : float; dur_s : float }

let enabled = ref false
let spans : span list ref = ref []
let origin = Unix.gettimeofday ()
let enable () = enabled := true

(* [around ~cat name f] times [f ()] as one span named [name] in
   category [cat] (the layer the call goes into). *)
let around ~cat name f =
  if not !enabled then f ()
  else begin
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      spans :=
        { name; cat; start_s = start -. origin; dur_s = stop -. start }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

let json_string s = Json.to_string (Json.String s)

(* Microseconds since the benchmark started, as Chrome traces expect. *)
let us s = Printf.sprintf "%.3f" (s *. 1e6)

let write path =
  let events =
    List.rev_map
      (fun sp ->
        Printf.sprintf
          {|{"name":%s,"cat":%s,"ph":"X","pid":1,"tid":1,"ts":%s,"dur":%s}|}
          (json_string sp.name) (json_string sp.cat) (us sp.start_s)
          (us sp.dur_s))
      !spans
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
        (String.concat ",\n" events))
