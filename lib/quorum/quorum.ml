type per_zone = Per_zone_majority | Per_zone_all

type spec =
  | Majority of int list
  | Count of { members : int list; threshold : int }
  | Fast of int list
  | Zones of { zones : int list list; need_zones : int; per_zone : per_zone }

let majority_threshold n = (n / 2) + 1
let fast_threshold n = (3 * n + 3) / 4

let dedup l = List.sort_uniq Int.compare l

let members = function
  | Majority ms | Fast ms -> dedup ms
  | Count { members; _ } -> dedup members
  | Zones { zones; _ } -> dedup (List.concat zones)

let zone_need per_zone zone =
  match per_zone with
  | Per_zone_majority -> majority_threshold (List.length zone)
  | Per_zone_all -> List.length zone

let min_size = function
  | Majority ms -> majority_threshold (List.length (dedup ms))
  | Fast ms -> fast_threshold (List.length (dedup ms))
  | Count { threshold; _ } -> threshold
  | Zones { zones; need_zones; per_zone } ->
      let needs =
        List.map (zone_need per_zone) zones |> List.sort Int.compare
      in
      let rec take k acc = function
        | _ when k = 0 -> acc
        | [] -> acc
        | x :: rest -> take (k - 1) (acc + x) rest
      in
      take need_zones 0 needs

(* Trackers sit on the per-ack hot path (one [ack] + [satisfied] per
   vote message), so everything derivable from the immutable [spec] is
   computed once at [create]: the deduped member list, the vote
   threshold for the flat specs, and a per-replica flag byte indexed
   by id (ids are small ints, see the mli) holding membership and
   acked/nacked bits. A vote is then one bounds check and one byte
   read/write — no list scan — which is what keeps [ack] O(1) at
   n = 81 where the old [List.mem] walks cost O(n) per vote. *)
type t = {
  spec : spec;
  memb : int list;  (** [members spec], deduped once at creation *)
  threshold : int;  (** acks needed among [memb]; unused for [Zones] *)
  flags : Bytes.t;  (** per-id bits: 1 = member, 2 = acked, 4 = nacked *)
  mutable acked : int list;
  mutable n_acked : int;
  mutable nacked : int list;
}

let flag_member = 1
let flag_acked = 2
let flag_nacked = 4

let create spec =
  let memb = members spec in
  let threshold =
    match spec with
    | Majority _ -> majority_threshold (List.length memb)
    | Fast _ -> fast_threshold (List.length memb)
    | Count { threshold; _ } -> threshold
    | Zones _ -> max_int (* zone counting, not a flat threshold *)
  in
  let top = List.fold_left (fun acc m -> if m > acc then m else acc) (-1) memb in
  let flags = Bytes.make (top + 1) '\000' in
  List.iter
    (fun m -> if m >= 0 then Bytes.unsafe_set flags m (Char.unsafe_chr flag_member))
    memb;
  { spec; memb; threshold; flags; acked = []; n_acked = 0; nacked = [] }

let fresh t =
  let flags = Bytes.copy t.flags in
  (* voters are members: keep only the membership bit *)
  let unvote id = Bytes.unsafe_set flags id (Char.unsafe_chr flag_member) in
  List.iter unvote t.acked;
  List.iter unvote t.nacked;
  { t with flags; acked = []; n_acked = 0; nacked = [] }

let ack t id =
  if id >= 0 && id < Bytes.length t.flags then begin
    let f = Char.code (Bytes.unsafe_get t.flags id) in
    if f land (flag_member lor flag_acked) = flag_member then begin
      Bytes.unsafe_set t.flags id (Char.unsafe_chr (f lor flag_acked));
      t.acked <- id :: t.acked;
      t.n_acked <- t.n_acked + 1
    end
  end

let nack t id =
  if id >= 0 && id < Bytes.length t.flags then begin
    let f = Char.code (Bytes.unsafe_get t.flags id) in
    if f land (flag_member lor flag_nacked) = flag_member then begin
      Bytes.unsafe_set t.flags id (Char.unsafe_chr (f lor flag_nacked));
      t.nacked <- id :: t.nacked
    end
  end

let count_in acked group =
  List.fold_left (fun acc m -> if List.mem m acked then acc + 1 else acc) 0 group

let satisfied_with spec acked =
  match spec with
  | Majority ms ->
      let ms = dedup ms in
      count_in acked ms >= majority_threshold (List.length ms)
  | Fast ms ->
      let ms = dedup ms in
      count_in acked ms >= fast_threshold (List.length ms)
  | Count { members; threshold } -> count_in acked (dedup members) >= threshold
  | Zones { zones; need_zones; per_zone } ->
      let ok_zones =
        List.filter
          (fun z -> count_in acked z >= zone_need per_zone z)
          zones
      in
      List.length ok_zones >= need_zones

let satisfied t =
  match t.spec with
  | Majority _ | Fast _ | Count _ ->
      (* [ack] admits each member at most once, so [n_acked] is exactly
         [count_in t.acked memb] without walking either list. *)
      t.n_acked >= t.threshold
  | Zones { zones; need_zones; per_zone } ->
      let ok =
        List.fold_left
          (fun acc z ->
            if count_in t.acked z >= zone_need per_zone z then acc + 1 else acc)
          0 zones
      in
      ok >= need_zones

let rejected t =
  (* Satisfaction impossible even if every silent member eventually
     acks: treat all non-nacked members as acked and re-check. *)
  let optimistic =
    List.filter (fun m -> not (List.mem m t.nacked)) t.memb
  in
  not (satisfied_with t.spec optimistic)

let acks t = List.rev t.acked
let nacks t = List.rev t.nacked

let clear_flag t flag id =
  let f = Char.code (Bytes.unsafe_get t.flags id) in
  Bytes.unsafe_set t.flags id (Char.unsafe_chr (f land lnot flag))

let reset t =
  List.iter (clear_flag t flag_acked) t.acked;
  List.iter (clear_flag t flag_nacked) t.nacked;
  t.acked <- [];
  t.n_acked <- 0;
  t.nacked <- []

let spec t = t.spec
let is_quorum spec acked = satisfied_with spec (dedup acked)

(* Enumerate subsets of [l] of size [k]. *)
let rec choose k l =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (choose (k - 1) rest) @ choose k rest

let minimal_quorums spec =
  match spec with
  | Majority ms ->
      let ms = dedup ms in
      choose (majority_threshold (List.length ms)) ms
  | Fast ms ->
      let ms = dedup ms in
      choose (fast_threshold (List.length ms)) ms
  | Count { members; threshold } -> choose threshold (dedup members)
  | Zones { zones; need_zones; per_zone } ->
      let zone_minimals =
        List.map (fun z -> choose (zone_need per_zone z) z) zones
      in
      (* pick need_zones zones, then one minimal per chosen zone *)
      let rec zone_choices k zs =
        if k = 0 then [ [] ]
        else
          match zs with
          | [] -> []
          | z :: rest ->
              let with_z =
                List.concat_map
                  (fun minimal ->
                    List.map (fun s -> minimal @ s) (zone_choices (k - 1) rest))
                  z
              in
              with_z @ zone_choices k rest
      in
      List.map dedup (zone_choices need_zones zone_minimals)

let intersects a b =
  let qa = minimal_quorums a and qb = minimal_quorums b in
  qa <> [] && qb <> []
  && List.for_all
       (fun sa ->
         List.for_all (fun sb -> List.exists (fun x -> List.mem x sb) sa) qb)
       qa
