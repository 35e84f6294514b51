type hist = {
  bounds : float array; (* strictly increasing bucket upper bounds *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float; (* +inf when empty *)
  mutable h_max : float; (* -inf when empty *)
}

type value = Counter of int ref | Gauge of float ref | Hist of hist
type t = { items : (string, value) Hashtbl.t }

let default_bounds =
  (* 1-2-5 per decade, 1e-3 .. 1e6 *)
  let decades = [ 1e-3; 1e-2; 1e-1; 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6 ] in
  Array.of_list
    (List.concat_map (fun d -> [ 1. *. d; 2. *. d; 5. *. d ]) decades)

let hist_create ?(bounds = default_bounds) () =
  let ok = ref (Array.length bounds > 0) in
  for i = 0 to Array.length bounds - 2 do
    if not (bounds.(i) < bounds.(i + 1)) then ok := false
  done;
  if not !ok then
    invalid_arg "Metrics.hist_create: bounds must be strictly increasing";
  {
    bounds = Array.copy bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0.;
    h_min = infinity;
    h_max = neg_infinity;
  }

(* First bucket whose upper bound is >= v; overflow bucket otherwise. *)
let bucket_of h v =
  let n = Array.length h.bounds in
  if v > h.bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= h.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let hist_record h v =
  let i = bucket_of h v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_min h = if h.h_count = 0 then None else Some h.h_min
let hist_max h = if h.h_count = 0 then None else Some h.h_max

let hist_percentile h p =
  if h.h_count = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (ceil (p *. float_of_int h.h_count)) in
      max 1 (min h.h_count r)
    in
    let n = Array.length h.counts in
    let i = ref 0 and cum = ref h.counts.(0) in
    while !cum < rank && !i < n - 1 do
      incr i;
      cum := !cum + h.counts.(!i)
    done;
    let est =
      if !i >= Array.length h.bounds then h.h_max else h.bounds.(!i)
    in
    (* the estimate can't leave the observed range *)
    Float.max h.h_min (Float.min h.h_max est)
  end

let hist_merge a b =
  if a.bounds <> b.bounds then
    invalid_arg "Metrics.hist_merge: incompatible bounds";
  let h =
    {
      bounds = Array.copy a.bounds;
      counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
      h_count = a.h_count + b.h_count;
      h_sum = a.h_sum +. b.h_sum;
      h_min = Float.min a.h_min b.h_min;
      h_max = Float.max a.h_max b.h_max;
    }
  in
  h

let hist_copy h =
  {
    bounds = Array.copy h.bounds;
    counts = Array.copy h.counts;
    h_count = h.h_count;
    h_sum = h.h_sum;
    h_min = h.h_min;
    h_max = h.h_max;
  }

let hist_json h =
  let buckets =
    let out = ref [] in
    for i = Array.length h.counts - 1 downto 0 do
      if h.counts.(i) > 0 then
        out :=
          Json.Obj
            [
              ( "le",
                if i < Array.length h.bounds then Json.Float h.bounds.(i)
                else Json.Null );
              ("n", Json.Int h.counts.(i));
            ]
          :: !out
    done;
    !out
  in
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", if h.h_count = 0 then Json.Null else Json.Float h.h_min);
      ("max", if h.h_count = 0 then Json.Null else Json.Float h.h_max);
      ("p50", Json.Float (hist_percentile h 0.50));
      ("p90", Json.Float (hist_percentile h 0.90));
      ("p95", Json.Float (hist_percentile h 0.95));
      ("p99", Json.Float (hist_percentile h 0.99));
      ("buckets", Json.List buckets);
    ]

let create () = { items = Hashtbl.create 32 }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.items name with
  | Some (Counter r) -> r := !r + by
  | Some _ -> invalid_arg ("Metrics.incr: " ^ name ^ " is not a counter")
  | None -> Hashtbl.replace t.items name (Counter (ref by))

let counter t name =
  match Hashtbl.find_opt t.items name with
  | Some (Counter r) -> !r
  | _ -> 0

let set_gauge t name v =
  match Hashtbl.find_opt t.items name with
  | Some (Gauge r) -> r := v
  | Some _ -> invalid_arg ("Metrics.set_gauge: " ^ name ^ " is not a gauge")
  | None -> Hashtbl.replace t.items name (Gauge (ref v))

let gauge t name =
  match Hashtbl.find_opt t.items name with
  | Some (Gauge r) -> Some !r
  | _ -> None

let observe t ?bounds name v =
  match Hashtbl.find_opt t.items name with
  | Some (Hist h) -> hist_record h v
  | Some _ -> invalid_arg ("Metrics.observe: " ^ name ^ " is not a histogram")
  | None ->
      let h = hist_create ?bounds () in
      hist_record h v;
      Hashtbl.replace t.items name (Hist h)

let hist t name =
  match Hashtbl.find_opt t.items name with
  | Some (Hist h) -> Some h
  | _ -> None

(* Sorted, not Hashtbl fold order: exports and debug dumps must be
   deterministic without every caller re-sorting. *)
let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.items []
  |> List.sort String.compare

let merge a b =
  let out = create () in
  let copy_into name v =
    let v' =
      match v with
      | Counter r -> Counter (ref !r)
      | Gauge r -> Gauge (ref !r)
      | Hist h -> Hist (hist_copy h)
    in
    Hashtbl.replace out.items name v'
  in
  Hashtbl.iter copy_into a.items;
  Hashtbl.iter
    (fun name v ->
      match (Hashtbl.find_opt out.items name, v) with
      | None, _ -> copy_into name v
      | Some (Counter r), Counter r' -> r := !r + !r'
      | Some (Gauge r), Gauge r' -> r := Float.max !r !r'
      | Some (Hist h), Hist h' -> Hashtbl.replace out.items name (Hist (hist_merge h h'))
      | Some _, _ ->
          invalid_arg ("Metrics.merge: instrument kind mismatch for " ^ name))
    b.items;
  out

(* Snapshot/delta encoding: [snapshot] freezes a registry, [delta]
   renders what happened since.  The contract mirrors [merge]:

     merge base (delta ~base cur)  ==  cur

   for counters and histogram counts whenever [base] is an earlier
   snapshot of [cur] (every instrument monotone in between).  Gauges
   carry the current value — under the max-merge law the round trip
   holds for monotone gauges.  This is what lets telemetry publish
   cheap incremental frames whose concatenation replays to the final
   registry. *)

let snapshot t = merge t (create ())

let hist_delta ~base cur =
  if base.bounds <> cur.bounds then
    invalid_arg "Metrics.delta: incompatible bounds";
  let d_count = cur.h_count - base.h_count in
  {
    bounds = Array.copy cur.bounds;
    counts = Array.mapi (fun i c -> c - base.counts.(i)) cur.counts;
    h_count = d_count;
    (* An empty delta must be a merge identity (+inf/-inf sentinels); a
       non-empty one reuses the cumulative extrema, which the min/max
       merge law absorbs exactly when [cur] extends [base]. *)
    h_sum = cur.h_sum -. base.h_sum;
    h_min = (if d_count = 0 then infinity else cur.h_min);
    h_max = (if d_count = 0 then neg_infinity else cur.h_max);
  }

let delta ~base cur =
  let out = create () in
  Hashtbl.iter
    (fun name v ->
      let v' =
        match (v, Hashtbl.find_opt base.items name) with
        | Counter r, Some (Counter r0) -> Counter (ref (!r - !r0))
        | Counter r, None -> Counter (ref !r)
        | Gauge r, (Some (Gauge _) | None) -> Gauge (ref !r)
        | Hist h, Some (Hist h0) -> Hist (hist_delta ~base:h0 h)
        | Hist h, None -> Hist (hist_copy h)
        | _, Some _ ->
            invalid_arg ("Metrics.delta: instrument kind mismatch for " ^ name)
      in
      Hashtbl.replace out.items name v')
    cur.items;
  out

let to_json t =
  Json.Obj
    (List.map
       (fun name ->
         ( name,
           match Hashtbl.find t.items name with
           | Counter r -> Json.Int !r
           | Gauge r -> Json.Float !r
           | Hist h -> hist_json h ))
       (names t))
