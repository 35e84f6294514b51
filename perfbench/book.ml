(* Bookkeeping for the repo benchmark: percentiles and the tail rule,
   failure accounting, the seeded serve request plan, spans with
   self-time, and the stamped result record with its comparison.
   Everything here is pure apart from the span recorder's mutex, so the
   unit tests in [test_book.ml] can pin it down without running a
   workload. *)

open Setagree_util

(* ---- percentiles ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [Stats.percentile] is nearest-rank: the [p]th percentile of [n]
   samples is the one of rank ceil(p/100 * n), so exactly [n - rank]
   samples lie strictly beyond it, which is what the tail rule counts. *)
let percentile xs p = Stats.percentile xs (p /. 100.)

let beyond ~n p = n - max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

(* Report a tail percentile only where at least ten samples lie beyond
   it; the highest such candidate is the one reported. *)
let tail_candidates = [ 75.; 90.; 95.; 99.; 99.9 ]

let tail_percentile n =
  List.fold_left
    (fun acc p -> if n > 0 && beyond ~n p >= 10 then Some p else acc)
    None tail_candidates

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Book.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles the way Python's [statistics.quantiles(values, n=4)]
   computes them (its default "exclusive" method), so spreads printed
   here match the ones an outside checker computes from the same runs. *)
let quartiles a =
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Book.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

type summary = {
  unit_ : string;
  values : float list;  (** as measured, in order *)
  samples : int;
  value : float;  (** the median *)
  q1 : float;
  q3 : float;
  tail : (float * float) option;  (** (percentile, value) by the tail rule *)
}

let summarize ~unit_ xs =
  match xs with
  | [] -> { unit_; values = []; samples = 0; value = 0.; q1 = 0.; q3 = 0.; tail = None }
  | _ ->
      let a = sorted xs in
      let q1, q3 = quartiles a in
      let n = Array.length a in
      {
        unit_;
        values = xs;
        samples = n;
        value = median a;
        q1;
        q3;
        tail = Option.map (fun p -> (p, percentile xs p)) (tail_percentile n);
      }

let summary_json s =
  Json.Obj
    ([
       ("unit", Json.String s.unit_);
       ("samples", Json.Int s.samples);
       ("median", Json.Float s.value);
       ("q1", Json.Float s.q1);
       ("q3", Json.Float s.q3);
       ("values", Json.List (List.map (fun v -> Json.Float v) s.values));
     ]
    @
    match s.tail with
    | None -> []
    | Some (p, v) -> [ ("tail_p", Json.Float p); ("tail", Json.Float v) ])

(* ---- failure accounting ---- *)

(* Every operation a workload attempts (a job, a request) is counted
   once; a failed, refused or timed-out one also counts as failed, with
   its reason kept for the record. *)
type tally = { mutable attempted : int; mutable failed : int; mutable reasons : string list }

let tally () = { attempted = 0; failed = 0; reasons = [] }

let count t ?(reason = "failed") ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.reasons < 20 then t.reasons <- t.reasons @ [ reason ]
  end

(* A failure outside any counted operation (set-up broke, a run hit its
   deadline): it is an operation that was attempted and failed. *)
let fail t reason = count t ~reason false

let fail_ratio t = if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted

(* ---- the seeded serve request plan ---- *)

type planned = Hit | Miss

type request = { client : int; seq : int; kseed : int; planned : planned }

(* Per batch and client, [per_client] requests of which exactly half
   (rounded down) are reads of that client's prefilled pool and the rest
   fresh seeds, shuffled by the workload seed.  Pools are disjoint across
   clients and fresh seeds are never reused, so no two in-flight
   requests share a spec (the daemon would attach the second to the
   first) and every planned miss really misses.

   Batches are made on demand, as many as a run uses, so a faster
   system never runs out of them.  Batch [b] draws from its own
   generator, split from the workload seed by [b]; batches are made in
   order, so the seeds the shared [used] table rules out are the same on
   every run with that seed. *)
type plan = {
  seed : int;
  clients : int;
  pool : int;
  per_client : int;
  used : (int, unit) Hashtbl.t;  (** every seed handed out so far *)
  pools : int array array;  (** per client: seeds stored at set-up (the hits) *)
  made : (int, request array array) Hashtbl.t;  (** batch -> client -> requests *)
  extra : Rng.t;  (** for seeds outside the batches *)
}

let fresh_from used rng =
  let rec go () =
    let s = 1 + Rng.int rng 1_000_000_000 in
    if Hashtbl.mem used s then go ()
    else begin
      Hashtbl.add used s ();
      s
    end
  in
  go ()

let plan ~seed ~clients ~pool ~per_client =
  let root = Rng.create seed and used = Hashtbl.create 256 in
  let rng = Rng.split_named root "pools" in
  let pools = Array.init clients (fun _ -> Array.init pool (fun _ -> fresh_from used rng)) in
  { seed; clients; pool; per_client; used; pools; made = Hashtbl.create 16; extra = Rng.split_named root "extra" }

let rec batch plan b =
  match Hashtbl.find_opt plan.made b with
  | Some reqs -> reqs
  | None ->
      if b > 0 then ignore (batch plan (b - 1));
      let rng = Rng.split_named (Rng.create plan.seed) (string_of_int b) in
      let hits = plan.per_client / 2 in
      let reqs =
        Array.init plan.clients (fun c ->
            List.init plan.per_client (fun i -> if i < hits then Hit else Miss)
            |> Rng.shuffle rng
            |> List.mapi (fun i k ->
                   let kseed =
                     match k with
                     | Hit -> plan.pools.(c).(Rng.int rng plan.pool)
                     | Miss -> fresh_from plan.used rng
                   in
                   { client = c; seq = i; kseed; planned = k })
            |> Array.of_list)
      in
      Hashtbl.replace plan.made b reqs;
      reqs

(* A seed that no batch made so far uses; batches made later skip it. *)
let fresh plan = fresh_from plan.used plan.extra

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int option;
  name : string;
  t0 : float;
  t1 : float;
}

(* The union length of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of it its children
   cover (children running in parallel are counted once). *)
let self_time spans s =
  let kids = List.filter_map (fun c -> if c.parent = Some s.id then Some (c.t0, c.t1) else None) spans in
  (s.t1 -. s.t0) -. covered ~lo:s.t0 ~hi:s.t1 kids

(* Spans are kept in memory (they may be recorded from several client
   domains) and written out once at the end of the run.  A span's id is
   reserved when it opens, so its children can name it as their parent
   before it is recorded. *)
type recorder = { m : Mutex.t; mutable next : int; mutable spans : span list }

let recorder () = { m = Mutex.create (); next = 1; spans = [] }

let reserve r =
  Mutex.lock r.m;
  let id = r.next in
  r.next <- id + 1;
  Mutex.unlock r.m;
  id

let add r ?id ?parent ~name t0 t1 =
  let id = match id with Some i -> i | None -> reserve r in
  Mutex.lock r.m;
  r.spans <- { id; parent; name; t0; t1 } :: r.spans;
  Mutex.unlock r.m;
  id

let spans r =
  Mutex.lock r.m;
  let l = List.rev r.spans in
  Mutex.unlock r.m;
  l

(* Total self time per span name, in first-seen order. *)
let self_by_name spans =
  List.fold_left
    (fun acc s ->
      let v = self_time spans s in
      match List.assoc_opt s.name acc with
      | Some _ -> List.map (fun (k, x) -> if k = s.name then (k, x +. v) else (k, x)) acc
      | None -> acc @ [ (s.name, v) ])
    [] spans

let span_json ~workload ~run_id s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
      ("name", Json.String s.name);
      ("start", Json.Float s.t0);
      ("end", Json.Float s.t1);
      ("workload", Json.String workload);
      ("run_id", Json.String run_id);
    ]

(* ---- comparing two result files ---- *)

type side = { med : float; lo : float; hi : float; n : int }

let side_of values =
  let a = sorted values in
  let lo, hi = quartiles a in
  { med = median a; lo; hi; n = Array.length a }

type verdict = Same | Better | Worse | Unresolved | Unbounded

let verdict_to_string = function
  | Same -> "same"
  | Better -> "better"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"
  | Unbounded -> "-"

(* Flag only a median change beyond the metric's bound; a side whose own
   spread is wider than the bound cannot resolve it either way, unless
   every run of B reads better than every run of A. *)
let judge ~bound ~lower_is_better ~a_values ~b_values =
  match bound with
  | None -> Unbounded
  | Some bound ->
      let a = side_of a_values and b = side_of b_values in
      let rel x = if a.med = 0. then 0. else (x -. a.med) /. Float.abs a.med in
      let change = rel b.med in
      let worse = if lower_is_better then change > bound else change < -.bound in
      let better = if lower_is_better then change < -.bound else change > bound in
      let all_better =
        let amin = List.fold_left Float.min infinity a_values
        and amax = List.fold_left Float.max neg_infinity a_values
        and bmin = List.fold_left Float.min infinity b_values
        and bmax = List.fold_left Float.max neg_infinity b_values in
        if lower_is_better then bmax < amin else bmin > amax
      in
      let spread_of s = if s.med = 0. then 0. else (s.hi -. s.lo) /. Float.abs s.med in
      if (spread_of a > bound || spread_of b > bound) && not all_better then Unresolved
      else if worse then Worse
      else if better then Better
      else Same
