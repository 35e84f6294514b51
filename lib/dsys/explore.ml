open Setagree_util

type instance = {
  i_sim : Sim.t;
  i_stop : unit -> bool;
  i_violation : unit -> string list;
  i_crashable : Pid.t list;
}

type options = {
  o_deliveries : (Pid.t * Pid.t) array;
  o_crashes : Pid.t list;
}

type exec = {
  ex_choices : Schedule.choice list;
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

(* Crash victims the adversary may still pick: declared crashable, not yet
   scheduled to crash, and within the resilience budget t. *)
let crash_candidates inst =
  let sim = inst.i_sim in
  let correct = Sim.correct_set sim in
  let budget = Sim.t_bound sim - (Sim.n sim - Pidset.cardinal correct) in
  if budget <= 0 then []
  else List.filter (fun p -> Pidset.mem p correct) inst.i_crashable

(* One controlled run.  [next] is consulted at every choice point (an
   event boundary with at least one pending delivery) and its choice is
   normalized (clamped index, ineligible crash degraded to the default),
   so the recorded [ex_choices] always replays identically.  Options are
   recorded for the first [depth] points only. *)
let controlled_run ~make ~depth ~next =
  let inst = make () in
  let sim = inst.i_sim in
  let points = ref 0 in
  let executed = ref [] in
  let recorded = ref [] in
  Sim.set_chooser sim (fun _sim arr ->
      let m = Array.length arr in
      if m = 0 then Sim.Pass
      else begin
        let point = !points in
        incr points;
        let crashables = crash_candidates inst in
        if point < depth then
          recorded :=
            {
              o_deliveries =
                Array.map (fun (p : Sim.pending) -> (p.Sim.pd_src, p.Sim.pd_dst)) arr;
              o_crashes = crashables;
            }
            :: !recorded;
        match next ~point ~deliveries:m ~crashables with
        | Schedule.Deliver i ->
            let i = if i < 0 then 0 else if i >= m then m - 1 else i in
            executed := Schedule.Deliver i :: !executed;
            Sim.Deliver i
        | Schedule.Crash p when List.mem p crashables ->
            executed := Schedule.Crash p :: !executed;
            Sim.Inject_crash p
        | Schedule.Crash _ ->
            executed := Schedule.Deliver 0 :: !executed;
            Sim.Deliver 0
      end);
  let outcome = Sim.run ~stop_when:inst.i_stop sim in
  Sim.clear_chooser sim;
  let violation = inst.i_violation () in
  Sim.release sim;
  {
    ex_choices = List.rev !executed;
    ex_options = Array.of_list (List.rev !recorded);
    ex_points = !points;
    ex_violation = violation;
    ex_outcome = outcome;
  }

let run_schedule ~make ?(depth = 0) choices =
  let rem = ref choices in
  controlled_run ~make ~depth ~next:(fun ~point:_ ~deliveries:_ ~crashables:_ ->
      match !rem with
      | [] -> Schedule.Deliver 0
      | c :: rest ->
          rem := rest;
          c)

let random_walk ~make ~seed ?(depth = 10_000) ?(p_deviate = 0.25) ?(p_crash = 0.05) () =
  let rng = Rng.create seed in
  controlled_run ~make ~depth:0 ~next:(fun ~point ~deliveries:m ~crashables ->
      if point >= depth then Schedule.Deliver 0
      else if crashables <> [] && Rng.float rng 1.0 < p_crash then
        Schedule.Crash (List.nth crashables (Rng.int rng (List.length crashables)))
      else if m > 1 && Rng.float rng 1.0 < p_deviate then
        Schedule.Deliver (1 + Rng.int rng (m - 1))
      else Schedule.Deliver 0)

let firstn k l = List.filteri (fun i _ -> i < k) l

let deviations prefix =
  List.length
    (List.filter (function Schedule.Deliver 0 -> false | _ -> true) prefix)

let alternatives_at stats e q =
  if q >= Array.length e.ex_options || q >= List.length e.ex_choices then []
  else begin
    let opts = e.ex_options.(q) in
    let pre = firstn q e.ex_choices in
    let m = Array.length opts.o_deliveries in
    (* Delivering the j-th pending message ahead of messages 0..j-1 only
       matters if it overtakes a delivery to the *same* destination:
       adjacent deliveries to different destinations commute (they touch
       disjoint mailboxes), so those branches are pruned — the
       sleep-set-style reduction. *)
    let deliver_alts =
      List.concat
        (List.init (m - 1) (fun jm1 ->
             let j = jm1 + 1 in
             let _, dj = opts.o_deliveries.(j) in
             let overtakes_same_dst = ref false in
             for i = 0 to j - 1 do
               let _, di = opts.o_deliveries.(i) in
               if di = dj then overtakes_same_dst := true
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
    let s0, d0 = opts.o_deliveries.(0) in
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
        let e = run_schedule ~make ~depth prefix in
        bump_run stats e;
        if e.ex_violation <> [] then begin
          stats.violations <- stats.violations + 1;
          (* Don't expand below a violation: shrinking handles minimality. *)
          found := (prefix, e.ex_violation) :: !found
        end
        else if deviations prefix < delays then begin
          let plen = List.length prefix in
          let kids = ref [] in
          for q = Array.length e.ex_options - 1 downto plen do
            kids := alternatives_at stats e q @ !kids
          done;
          stack := !kids @ !stack
        end
  done;
  List.rev !found

(* Generic greedy delta debugging over a list of atoms: repeatedly drop
   chunks of halving sizes while [test] keeps holding on the candidate.
   [test] must hold on the full input for the result to be meaningful
   (callers establish that before minimizing).  Used by the schedule
   shrinker below and by the chaos campaign to minimize failing fault
   specifications ([Faults.elements]). *)
let ddmin ~test ?(budget = max_int) items =
  let left = ref budget in
  let check cand =
    if !left <= 0 then false
    else begin
      decr left;
      test cand
    end
  in
  let remove_range l start len =
    List.filteri (fun i _ -> i < start || i >= start + len) l
  in
  let rec chunk_pass cur size =
    if size < 1 then cur
    else begin
      let rec at start cur =
        if start >= List.length cur then cur
        else
          let cand = remove_range cur start size in
          if check cand then at start cand else at (start + size) cur
      in
      chunk_pass (at 0 cur) (size / 2)
    end
  in
  if items = [] then []
  else if check [] then []
  else chunk_pass items (max 1 (List.length items / 2))

let shrink ~make ~stats ?(budget = 400) (choices, notes) =
  let left = ref budget in
  let try_run cs =
    if !left <= 0 then None
    else begin
      decr left;
      stats.shrink_runs <- stats.shrink_runs + 1;
      let e = run_schedule ~make cs in
      bump_run stats e;
      Some e
    end
  in
  let viol cs =
    match try_run cs with Some e -> e.ex_violation <> [] | None -> false
  in
  let remove_range l start len =
    List.filteri (fun i _ -> i < start || i >= start + len) l
  in
  (* Greedy delta debugging: drop chunks of halving sizes while the
     violation survives, then normalize surviving non-default choices
     (crashes and reorderings) back to the default one at a time. *)
  let rec chunk_pass cur size =
    if size < 1 then cur
    else begin
      let rec at start cur =
        if start >= List.length cur then cur
        else
          let cand = remove_range cur start size in
          if viol cand then at start cand else at (start + size) cur
      in
      chunk_pass (at 0 cur) (size / 2)
    end
  in
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
      let cur = chunk_pass choices (max 1 (List.length choices / 2)) in
      let cur = normalize cur in
      chunk_pass cur 1
  in
  (* Confirming run (not budget-gated): the minimized schedule's own
     violation notes, which may differ from the original's. *)
  stats.shrink_runs <- stats.shrink_runs + 1;
  let e = run_schedule ~make minimized in
  bump_run stats e;
  if e.ex_violation <> [] then (minimized, e.ex_violation) else (choices, notes)
