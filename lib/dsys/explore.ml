open Setagree_util

type instance = {
  i_sim : Sim.t;
  i_stop : unit -> bool;
  i_violation : unit -> string list;
  i_crashable : Pid.t list;
}

type options = {
  o_src : int array;
  o_dst : int array;
  o_crashes : Pid.t list;
}

type exec = {
  ex_choices : Schedule.choice list;
  ex_from : int;
  ex_options : options array;
  ex_points : int;
  ex_violation : string list;
  ex_outcome : Sim.outcome;
}

type stats = {
  mutable runs : int;
  mutable points : int;
  mutable prunes : int;
  mutable violations : int;
  mutable shrink_runs : int;
}

let new_stats () = { runs = 0; points = 0; prunes = 0; violations = 0; shrink_runs = 0 }

let stats_metrics st =
  [
    ("explore.runs", float_of_int st.runs);
    ("explore.points", float_of_int st.points);
    ("explore.prunes", float_of_int st.prunes);
    ("explore.violations", float_of_int st.violations);
    ("explore.shrink_runs", float_of_int st.shrink_runs);
  ]

(* Whether the adversary may still crash [p], one of the declared
   crashable processes: not yet scheduled to crash, and within the
   resilience budget t. *)
let crash_eligible inst p =
  let correct = Sim.correct_set inst.i_sim in
  Sim.t_bound inst.i_sim - (Sim.n inst.i_sim - Pidset.cardinal correct) > 0
  && Pidset.mem p correct

let crash_candidates inst = List.filter (crash_eligible inst) inst.i_crashable

(* One controlled run.  [next] is consulted at every choice point (an
   event boundary with at least one pending delivery) and its choice is
   normalized (clamped index, ineligible crash degraded to the default),
   so a recorded choice list always replays identically.  With [record]
   the run keeps its executed choices and the options of points [from]
   to [depth - 1]; without it (a DFS leaf) it keeps neither, and a choice
   point allocates nothing. *)
let controlled_run ~make ~record ~from ~depth ~next =
  let inst = make () in
  let sim = inst.i_sim in
  let points = ref 0 in
  let executed = ref [] in
  let recorded = ref [] in
  Sim.set_chooser sim (fun sim m ->
      if m = 0 then Sim.Pass
      else begin
        let point = !points in
        incr points;
        if record && point >= from && point < depth then
          recorded :=
            {
              o_src = Array.init m (Sim.pending_src sim);
              o_dst = Array.init m (Sim.pending_dst sim);
              o_crashes = crash_candidates inst;
            }
            :: !recorded;
        match next inst ~point ~deliveries:m with
        | Schedule.Deliver i ->
            let i = if i < 0 then 0 else if i >= m then m - 1 else i in
            if record then executed := Schedule.Deliver i :: !executed;
            (* The constant [Deliver 0] is static: the default choice
               allocates no decision. *)
            if i = 0 then Sim.Deliver 0 else Sim.Deliver i
        | Schedule.Crash p as c
          when List.mem p inst.i_crashable && crash_eligible inst p ->
            if record then executed := c :: !executed;
            Sim.Inject_crash p
        | Schedule.Crash _ ->
            if record then executed := Schedule.Deliver 0 :: !executed;
            Sim.Deliver 0
      end);
  let outcome = Sim.run ~stop_when:inst.i_stop sim in
  Sim.clear_chooser sim;
  let violation = inst.i_violation () in
  Sim.release sim;
  {
    ex_choices = List.rev !executed;
    ex_from = from;
    ex_options = Array.of_list (List.rev !recorded);
    ex_points = !points;
    ex_violation = violation;
    ex_outcome = outcome;
  }

(* Replay [choices], then the FIFO default once they run out. *)
let replay ~make ~record ~from ~depth choices =
  let rem = ref choices in
  controlled_run ~make ~record ~from ~depth ~next:(fun _ ~point:_ ~deliveries:_ ->
      match !rem with
      | [] -> Schedule.Deliver 0
      | c :: rest ->
          rem := rest;
          c)

let run_schedule ~make ?(depth = 0) choices =
  replay ~make ~record:true ~from:0 ~depth choices

let random_walk ~make ~seed ?(depth = 10_000) ?(p_deviate = 0.25) ?(p_crash = 0.05) () =
  let rng = Rng.create seed in
  controlled_run ~make ~record:true ~from:0 ~depth:0
    ~next:(fun inst ~point ~deliveries:m ->
      if point >= depth then Schedule.Deliver 0
      else
        let crashables = crash_candidates inst in
        if crashables <> [] && Rng.float rng 1.0 < p_crash then
          Schedule.Crash (List.nth crashables (Rng.int rng (List.length crashables)))
        else if m > 1 && Rng.float rng 1.0 < p_deviate then
          Schedule.Deliver (1 + Rng.int rng (m - 1))
        else Schedule.Deliver 0)

let firstn k l = List.filteri (fun i _ -> i < k) l

let deviations prefix =
  List.fold_left
    (fun acc c -> match c with Schedule.Deliver 0 -> acc | _ -> acc + 1)
    0 prefix

let alternatives_at stats e q =
  let k = q - e.ex_from in
  if k < 0 || k >= Array.length e.ex_options || q >= List.length e.ex_choices then []
  else begin
    let opts = e.ex_options.(k) in
    let pre = firstn q e.ex_choices in
    let m = Array.length opts.o_dst in
    (* Delivering the j-th pending message ahead of messages 0..j-1 only
       matters if it overtakes a delivery to the *same* destination:
       adjacent deliveries to different destinations commute (they touch
       disjoint mailboxes), so those branches are pruned — the
       sleep-set-style reduction. *)
    let deliver_alts =
      List.concat
        (List.init (m - 1) (fun jm1 ->
             let j = jm1 + 1 in
             let dj = opts.o_dst.(j) in
             let overtakes_same_dst = ref false in
             for i = 0 to j - 1 do
               if opts.o_dst.(i) = dj then overtakes_same_dst := true
             done;
             if !overtakes_same_dst then [ pre @ [ Schedule.Deliver j ] ]
             else begin
               stats.prunes <- stats.prunes + 1;
               []
             end))
    in
    (* Crash branches: initial crashes (at the very first point), or a
       crash of a process participating in the default next delivery —
       the only placements that can change what this boundary does. *)
    let s0 = opts.o_src.(0) and d0 = opts.o_dst.(0) in
    let crash_alts =
      List.filter_map
        (fun p ->
          if q = 0 || p = s0 || p = d0 then Some (pre @ [ Schedule.Crash p ])
          else None)
        opts.o_crashes
    in
    deliver_alts @ crash_alts
  end

let bump_run stats e =
  stats.runs <- stats.runs + 1;
  stats.points <- stats.points + e.ex_points

let default_exec ~make ~stats ~depth =
  let e = run_schedule ~make ~depth [] in
  bump_run stats e;
  e

let dfs ~make ~stats ?(depth = 64) ?(delays = 2) ?(max_runs = 1000)
    ?(poll = fun () -> false) roots =
  let found = ref [] in
  let stack = ref roots in
  while !stack <> [] && stats.runs < max_runs && not (poll ()) do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        (* Only a run with deviations to spare is expanded, and only at
           points at or after its prefix, so only such a run records
           options, and only from there; a leaf records nothing. *)
        let expand = deviations prefix < delays in
        let plen = List.length prefix in
        let e = replay ~make ~record:expand ~from:plen ~depth prefix in
        bump_run stats e;
        if e.ex_violation <> [] then begin
          stats.violations <- stats.violations + 1;
          (* Don't expand below a violation: shrinking handles minimality. *)
          found := (prefix, e.ex_violation) :: !found
        end
        else if expand then begin
          let kids = ref [] in
          for q = plen + Array.length e.ex_options - 1 downto plen do
            kids := alternatives_at stats e q @ !kids
          done;
          stack := !kids @ !stack
        end
  done;
  List.rev !found

(* The greedy delta-debugging core: drop chunks of [size] atoms, left to
   right, while [test] keeps holding on the candidate, then of halving
   sizes down to single atoms. *)
let rec chunk_pass ~test cur size =
  if size < 1 then cur
  else begin
    let rec at start cur =
      if start >= List.length cur then cur
      else
        let cand = List.filteri (fun i _ -> i < start || i >= start + size) cur in
        if test cand then at start cand else at (start + size) cur
    in
    chunk_pass ~test (at 0 cur) (size / 2)
  end

let half l = max 1 (List.length l / 2)

(* Generic greedy delta debugging over a list of atoms.  [test] must hold
   on the full input for the result to be meaningful (callers establish
   that before minimizing).  Used by the chaos campaign to minimize
   failing fault specifications ([Faults.elements]); the schedule
   shrinker below runs the same chunk passes. *)
let ddmin ~test ?(budget = max_int) items =
  let left = ref budget in
  let check cand =
    if !left <= 0 then false
    else begin
      decr left;
      test cand
    end
  in
  if items = [] then []
  else if check [] then []
  else chunk_pass ~test:check items (half items)

let shrink ~make ~stats ?(budget = 400) (choices, notes) =
  let left = ref budget in
  let try_run cs =
    if !left <= 0 then None
    else begin
      decr left;
      stats.shrink_runs <- stats.shrink_runs + 1;
      let e = replay ~make ~record:false ~from:0 ~depth:0 cs in
      bump_run stats e;
      Some e
    end
  in
  let viol cs =
    match try_run cs with Some e -> e.ex_violation <> [] | None -> false
  in
  (* Greedy delta debugging: drop chunks of halving sizes while the
     violation survives, then normalize surviving non-default choices
     (crashes and reorderings) back to the default one at a time, then
     retry dropping single choices. *)
  let normalize cur =
    List.fold_left
      (fun acc idx ->
        match List.nth acc idx with
        | Schedule.Deliver 0 -> acc
        | _ ->
            let cand =
              List.mapi (fun i c -> if i = idx then Schedule.Deliver 0 else c) acc
            in
            if viol cand then cand else acc)
      cur
      (List.init (List.length cur) Fun.id)
  in
  let minimized =
    if viol [] then []
    else
      let cur = chunk_pass ~test:viol choices (half choices) in
      let cur = normalize cur in
      chunk_pass ~test:viol cur 1
  in
  (* Confirming run (not budget-gated): the minimized schedule's own
     violation notes, which may differ from the original's. *)
  stats.shrink_runs <- stats.shrink_runs + 1;
  let e = replay ~make ~record:false ~from:0 ~depth:0 minimized in
  bump_run stats e;
  if e.ex_violation <> [] then (minimized, e.ex_violation) else (choices, notes)
