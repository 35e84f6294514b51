(* Declarative fault specification: the unified fault-injection layer.

   A [t] value describes everything the environment is allowed to do to a
   run beyond the asynchrony already modelled by [Delay]: windowed link
   faults (drop, duplicate, reorder, delay inflation), named partitions
   with scheduled heal times, process stalls (freeze without crashing),
   a crash schedule ([Crash.spec] embedded), and a named failure-detector
   adversary strategy interpreted by [Fd.Behavior].

   Specs are pure data: JSON round-trippable (chaos counterexamples are
   replayed from files), decomposable into [element]s for delta-debugging
   minimization, and evaluated deterministically — all draws come from an
   [Rng.t] the caller dedicates to fault decisions, so enabling a spec
   never perturbs the delay/crash streams of the underlying run.

   Semantics note (matches DESIGN §8): a "dropped" message is parked
   until the end of its fault window rather than destroyed.  The paper's
   model (§2.1) assumes reliable channels, so true loss would change the
   computational model; parking preserves "every message is eventually
   delivered" while making the link useless for the duration of the
   fault — observationally a drop for any protocol whose decisions fall
   inside the window.  True, unbounded loss remains available through
   [Lossy], which pairs it with a retransmitting transport. *)

open Setagree_util

type link = {
  l_src : Pid.t list;  (* sources affected; [] means every source *)
  l_dst : Pid.t list;  (* destinations affected; [] means every destination *)
  l_from : float;
  l_until : float;
  l_drop : float;     (* P(park this copy until the window closes) *)
  l_dup : float;      (* P(inject one extra copy) *)
  l_reorder : float;  (* P(add extra delay drawn from [0, l_spread)) *)
  l_spread : float;
  l_inflate : float;  (* multiplier on the sampled link delay *)
}

type partition = {
  p_name : string;
  p_groups : Pid.t list list;  (* disjoint blocks; unlisted pids form one extra block *)
  p_from : float;
  p_heal : float;
}

type stall = { s_pid : Pid.t; s_from : float; s_until : float }

type t = {
  links : link list;
  partitions : partition list;
  stalls : stall list;
  crashes : Crash.spec;
  adversary : string;  (* "" = derive from params; see [adversaries] *)
}

let none =
  {
    links = [];
    partitions = [];
    stalls = [];
    crashes = Crash.No_crashes;
    adversary = "";
  }

let is_none t =
  (match t.links with [] -> true | _ :: _ -> false)
  && (match t.partitions with [] -> true | _ :: _ -> false)
  && (match t.stalls with [] -> true | _ :: _ -> false)
  && (match t.crashes with Crash.No_crashes -> true | _ -> false)
  && String.equal t.adversary ""

let link ?(src = []) ?(dst = []) ?(drop = 0.0) ?(dup = 0.0) ?(reorder = 0.0)
    ?(spread = 2.0) ?(inflate = 1.0) ~from ~until () =
  {
    l_src = src;
    l_dst = dst;
    l_from = from;
    l_until = until;
    l_drop = drop;
    l_dup = dup;
    l_reorder = reorder;
    l_spread = spread;
    l_inflate = inflate;
  }

let partition ?(name = "partition") ~groups ~from ~heal () =
  { p_name = name; p_groups = groups; p_from = from; p_heal = heal }

let stall ~pid ~from ~until = { s_pid = pid; s_from = from; s_until = until }

let adversaries = [ "calm"; "stormy"; "rotating"; "slander"; "late"; "never" ]

(* ---- windows ---- *)

let active ~from ~until now = from <= now && now < until

let heal_time t =
  let m = ref 0.0 in
  let bump x = if x > !m then m := x in
  List.iter (fun l -> bump l.l_until) t.links;
  List.iter (fun p -> bump p.p_heal) t.partitions;
  List.iter (fun s -> bump s.s_until) t.stalls;
  !m

(* ---- send-path evaluation ---- *)

type plan = {
  park : float option;  (* absolute time before which delivery may not happen *)
  copies : int;         (* total copies to deliver (>= 1) *)
  inflate : float;      (* multiplier on each sampled delay *)
  extra : float;        (* additive extra delay (reordering) *)
}

let pass = { park = None; copies = 1; inflate = 1.0; extra = 0.0 }

let link_matches l ~src ~dst =
  (l.l_src = [] || List.mem src l.l_src)
  && (l.l_dst = [] || List.mem dst l.l_dst)

(* Block index of [pid] under a partition: index of the first group listing
   it, or -1 — so all unlisted processes stay mutually connected. *)
let block_of groups pid =
  let rec go i = function
    | [] -> -1
    | g :: rest -> if List.mem pid g then i else go (i + 1) rest
  in
  go 0 groups

let separates p ~src ~dst =
  block_of p.p_groups src <> block_of p.p_groups dst

let send_plan t rng ~src ~dst ~now =
  if is_none t then pass
  else begin
    let park = ref None in
    let bump_park tm =
      match !park with
      | Some cur when cur >= tm -> ()
      | _ -> park := Some tm
    in
    List.iter
      (fun p ->
        if active ~from:p.p_from ~until:p.p_heal now && separates p ~src ~dst
        then bump_park p.p_heal)
      t.partitions;
    let copies = ref 1 and inflate = ref 1.0 and extra = ref 0.0 in
    List.iter
      (fun l ->
        if active ~from:l.l_from ~until:l.l_until now && link_matches l ~src ~dst
        then begin
          if l.l_drop > 0.0 && Rng.bernoulli rng l.l_drop then
            bump_park l.l_until;
          if l.l_dup > 0.0 && Rng.bernoulli rng l.l_dup then incr copies;
          if l.l_reorder > 0.0 && Rng.bernoulli rng l.l_reorder then
            extra := !extra +. Rng.uniform_in rng 0.0 l.l_spread;
          if l.l_inflate <> 1.0 then inflate := !inflate *. l.l_inflate
        end)
      t.links;
    { park = !park; copies = !copies; inflate = !inflate; extra = !extra }
  end

(* ---- legality ---- *)

let legal ~n ~t:resilience spec =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let check_pid what p =
    if p < 0 || p >= n then err "%s: pid %d outside 0..%d" what p (n - 1)
  in
  let check_window what from until =
    if not (Float.is_finite from && Float.is_finite until) then
      err "%s: window bounds must be finite" what
    else if from < 0.0 then err "%s: window starts before 0" what
    else if until <= from then err "%s: empty window [%g, %g)" what from until
  in
  let check_prob what p =
    if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
      err "%s: probability %g outside [0, 1]" what p
  in
  List.iteri
    (fun i l ->
      let what = Printf.sprintf "links[%d]" i in
      check_window what l.l_from l.l_until;
      check_prob (what ^ ".drop") l.l_drop;
      check_prob (what ^ ".dup") l.l_dup;
      check_prob (what ^ ".reorder") l.l_reorder;
      if l.l_spread < 0.0 then err "%s: negative spread" what;
      if not (l.l_inflate > 0.0) then err "%s: inflate must be > 0" what;
      List.iter (check_pid (what ^ ".src")) l.l_src;
      List.iter (check_pid (what ^ ".dst")) l.l_dst)
    spec.links;
  List.iteri
    (fun i p ->
      let what = Printf.sprintf "partitions[%d] (%s)" i p.p_name in
      check_window what p.p_from p.p_heal;
      List.iter (fun g -> List.iter (check_pid what) g) p.p_groups;
      let all = List.concat p.p_groups in
      let sorted = List.sort_uniq compare all in
      if List.length sorted < List.length all then
        err "%s: groups overlap" what)
    spec.partitions;
  List.iteri
    (fun i s ->
      let what = Printf.sprintf "stalls[%d]" i in
      check_window what s.s_from s.s_until;
      check_pid what s.s_pid)
    spec.stalls;
  (match spec.crashes with
  | Crash.Explicit l when List.length l > resilience ->
      err "crashes: %d explicit crashes exceed the resilience bound t=%d"
        (List.length l) resilience
  | Crash.Initial pids when List.length pids > resilience ->
      err "crashes: %d initial crashes exceed the resilience bound t=%d"
        (List.length pids) resilience
  | _ -> ());
  (if spec.adversary <> "" && not (List.mem spec.adversary adversaries) then
     err "adversary: unknown strategy %S (known: %s)" spec.adversary
       (String.concat ", " adversaries));
  (if spec.adversary = "never" then
     err
       "adversary: \"never\" has no stabilization time — no eventual \
        failure-detector class admits it");
  match !errs with [] -> Ok () | l -> Error (List.rev l)

(* ---- element decomposition (for delta-debugging minimization) ---- *)

type element =
  | E_link of link
  | E_partition of partition
  | E_stall of stall
  | E_crash of Pid.t * float
  | E_crash_spec of Crash.spec
  | E_adversary of string

let elements t =
  List.map (fun l -> E_link l) t.links
  @ List.map (fun p -> E_partition p) t.partitions
  @ List.map (fun s -> E_stall s) t.stalls
  @ (match t.crashes with
    | Crash.No_crashes -> []
    | Crash.Explicit l -> List.map (fun (p, tm) -> E_crash (p, tm)) l
    | s -> [ E_crash_spec s ])
  @ (if t.adversary = "" then [] else [ E_adversary t.adversary ])

let of_elements els =
  let crashes = ref [] and spec = ref None and adv = ref "" in
  let t =
    List.fold_left
      (fun acc e ->
        match e with
        | E_link l -> { acc with links = acc.links @ [ l ] }
        | E_partition p -> { acc with partitions = acc.partitions @ [ p ] }
        | E_stall s -> { acc with stalls = acc.stalls @ [ s ] }
        | E_crash (p, tm) ->
            crashes := !crashes @ [ (p, tm) ];
            acc
        | E_crash_spec s ->
            spec := Some s;
            acc
        | E_adversary a ->
            adv := a;
            acc)
      none els
  in
  let crashes =
    match (!spec, !crashes) with
    | Some s, _ -> s
    | None, [] -> Crash.No_crashes
    | None, l -> Crash.Explicit l
  in
  { t with crashes; adversary = !adv }

(* ---- JSON ---- *)

let pids_json l = Json.List (List.map (fun p -> Json.Int p) l)

let link_json l =
  Json.Obj
    [
      ("src", pids_json l.l_src);
      ("dst", pids_json l.l_dst);
      ("from", Json.Float l.l_from);
      ("until", Json.Float l.l_until);
      ("drop", Json.Float l.l_drop);
      ("dup", Json.Float l.l_dup);
      ("reorder", Json.Float l.l_reorder);
      ("spread", Json.Float l.l_spread);
      ("inflate", Json.Float l.l_inflate);
    ]

let partition_json p =
  Json.Obj
    [
      ("name", Json.String p.p_name);
      ("groups", Json.List (List.map pids_json p.p_groups));
      ("from", Json.Float p.p_from);
      ("heal", Json.Float p.p_heal);
    ]

let stall_json s =
  Json.Obj
    [
      ("pid", Json.Int s.s_pid);
      ("from", Json.Float s.s_from);
      ("until", Json.Float s.s_until);
    ]

let to_json t =
  Json.Obj
    [
      ("links", Json.List (List.map link_json t.links));
      ("partitions", Json.List (List.map partition_json t.partitions));
      ("stalls", Json.List (List.map stall_json t.stalls));
      ("crashes", Crash.spec_to_json t.crashes);
      ("adversary", Json.String t.adversary);
    ]

let ( let* ) r f = Result.bind r f
let ints = Json.list_opt Json.to_int_opt
let num name ~default j = Json.field name ~what:"a number" Json.to_float_opt ~default j
let req_num name j = Json.required name ~what:"a number" Json.to_float_opt j

(* A list member of objects, each decoded in order; the first one
   refused refuses the list. *)
let objects name decode j =
  let* items =
    Json.field name ~what:"a list of objects"
      (Json.list_opt (function Json.Obj _ as o -> Some o | _ -> None))
      ~default:[] j
  in
  List.fold_left
    (fun acc item ->
      let* ys = acc in
      let* y = decode item in
      Ok (y :: ys))
    (Ok []) items
  |> Result.map List.rev

let link_of_json j =
  let* l_src = Json.field "src" ~what:"a list of ints" ints ~default:[] j in
  let* l_dst = Json.field "dst" ~what:"a list of ints" ints ~default:[] j in
  let* l_from = req_num "from" j in
  let* l_until = req_num "until" j in
  let* l_drop = num "drop" ~default:0.0 j in
  let* l_dup = num "dup" ~default:0.0 j in
  let* l_reorder = num "reorder" ~default:0.0 j in
  let* l_spread = num "spread" ~default:2.0 j in
  let* l_inflate = num "inflate" ~default:1.0 j in
  Ok { l_src; l_dst; l_from; l_until; l_drop; l_dup; l_reorder; l_spread; l_inflate }

let partition_of_json j =
  let* p_name = Json.field "name" ~what:"a string" Json.to_string_opt ~default:"partition" j in
  let* p_groups = Json.required "groups" ~what:"a list of int lists" (Json.list_opt ints) j in
  let* p_from = req_num "from" j in
  let* p_heal = req_num "heal" j in
  Ok { p_name; p_groups; p_from; p_heal }

let stall_of_json j =
  let* s_pid = Json.required "pid" ~what:"an int" Json.to_int_opt j in
  let* s_from = req_num "from" j in
  let* s_until = req_num "until" j in
  Ok { s_pid; s_from; s_until }

let of_json j =
  Result.map_error (( ^ ) "Faults.of_json: ")
    (match j with
    | Json.Obj _ ->
        let* links = objects "links" link_of_json j in
        let* partitions = objects "partitions" partition_of_json j in
        let* stalls = objects "stalls" stall_of_json j in
        let* crashes =
          match Json.member "crashes" j with
          | None -> Ok Crash.No_crashes
          | Some c -> Result.map_error (Printf.sprintf "\"crashes\": %s") (Crash.spec_of_json c)
        in
        let* adversary = Json.field "adversary" ~what:"a string" Json.to_string_opt ~default:"" j in
        Ok { links; partitions; stalls; crashes; adversary }
    | _ -> Error "expected an object")

let equal (a : t) (b : t) = a = b

let summary t =
  if is_none t then "no-faults"
  else
    let parts = ref [] in
    let add s = parts := s :: !parts in
    if t.adversary <> "" then add (Printf.sprintf "adversary=%s" t.adversary);
    (match t.crashes with
    | Crash.No_crashes -> ()
    | Crash.Explicit l -> add (Printf.sprintf "crashes=%d" (List.length l))
    | Crash.Initial l -> add (Printf.sprintf "crashes=initial:%d" (List.length l))
    | Crash.Random_up_to { max_crashes; _ } ->
        add (Printf.sprintf "crashes<=%d" max_crashes)
    | Crash.Exactly { crashes; _ } -> add (Printf.sprintf "crashes=%d" crashes));
    if t.stalls <> [] then add (Printf.sprintf "stalls=%d" (List.length t.stalls));
    if t.partitions <> [] then
      add (Printf.sprintf "partitions=%d" (List.length t.partitions));
    if t.links <> [] then add (Printf.sprintf "links=%d" (List.length t.links));
    String.concat " " !parts

let pp fmt t = Format.pp_print_string fmt (summary t)
