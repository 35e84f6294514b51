open Setagree_util
open Setagree_dsys
open Setagree_fd

type report = { title : string; ok : bool; details : string list }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>[%s] %s@,%a@]"
    (if r.ok then "confirmed" else "NOT CONFIRMED")
    r.title
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun f s ->
         Format.fprintf f "  - %s" s))
    r.details

let distinct_decisions ds =
  List.length (List.sort_uniq Int.compare (List.map (fun (_, v, _, _) -> v) ds))

(* Advance a simulation to a given virtual time with nothing but heartbeat
   events (no protocol runs; we only exercise oracles). *)
let idle_run_until sim time =
  Sim.ticker sim ~every:1.0;
  ignore (Sim.run ~stop_when:(fun () -> Sim.now sim >= time) sim)

let all_subsets n = List.of_seq (Seq.concat (Seq.init (n + 1) (fun s -> Combi.enumerate ~n ~size:s)))

let phi_blind_to_victims ~n ~t ~y ~crashes ~seed =
  let title =
    Printf.sprintf
      "O1: with f = %d <= t - y = %d crashes, phi_%d answers depend on |X| only" crashes
      (t - y) y
  in
  if crashes > t - y then
    { title; ok = false; details = [ "misuse: crashes > t - y" ] }
  else begin
    let gst = 30.0 in
    let observe victims =
      let sim = Sim.create ~horizon:200.0 ~n ~t ~seed () in
      Sim.install_crashes sim (List.map (fun p -> (p, 5.0)) victims);
      let querier, _ = Oracle.phi_y sim ~y ~behavior:(Behavior.calm ~gst) () in
      idle_run_until sim (gst +. 10.0);
      (* One fixed observer queries every subset.  The observer must be
         correct in both runs: use the last process, never a victim here. *)
      let obs = n - 1 in
      List.map (fun x -> querier.Iface.query obs x) (all_subsets n)
    in
    let v1 = List.init crashes Fun.id in
    let v2 = List.init crashes (fun i -> i + crashes) in
    if List.exists (fun p -> p >= n - 1) (v1 @ v2) then
      { title; ok = false; details = [ "n too small for disjoint victim sets" ] }
    else begin
      let a1 = observe v1 and a2 = observe v2 in
      let equal = a1 = a2 in
      {
        title;
        ok = equal;
        details =
          [
            Printf.sprintf "victims run 1: {%s}"
              (String.concat "," (List.map Pid.to_string v1));
            Printf.sprintf "victims run 2: {%s}"
              (String.concat "," (List.map Pid.to_string v2));
            Printf.sprintf "%d subsets queried, answers %s" (List.length a1)
              (if equal then "identical" else "DIFFER");
          ];
      }
    end
  end

let omega_blind_to_crashes ~n ~t ~z ~seed =
  let title =
    Printf.sprintf "Omega_%d history compatible with different crash patterns" z
  in
  let gst = 20.0 in
  (* The same pure-function-of-time leader output, used in two runs with
     different crash schedules.  Legal in both runs as long as the eventual
     set contains a process correct in both: process n-1. *)
  let eventual = Pidset.add (n - 1) (if z >= 2 then Pidset.singleton 0 else Pidset.empty) in
  let observe victims =
    let sim = Sim.create ~horizon:200.0 ~n ~t ~seed () in
    Sim.install_crashes sim (List.map (fun p -> (p, 5.0)) victims);
    let trusted _i =
      if Sim.now sim >= gst then eventual else Pidset.singleton 0
    in
    idle_run_until sim (gst +. 10.0);
    List.init n (fun i -> if Sim.is_crashed sim i then None else Some (trusted i))
  in
  let v1 = [] and v2 = List.init (min t (n - 2)) (fun i -> i + 1) in
  let a1 = observe v1 and a2 = observe v2 in
  (* Compare outputs of processes alive in both runs. *)
  let equal_on_alive =
    List.for_all2
      (fun o1 o2 -> match (o1, o2) with Some s1, Some s2 -> Pidset.equal s1 s2 | _ -> true)
      a1 a2
  in
  {
    title;
    ok = equal_on_alive;
    details =
      [
        Printf.sprintf "eventual set %s; run 2 crashes %d processes"
          (Pidset.to_string eventual) (List.length v2);
        (if equal_on_alive then "trusted outputs identical on surviving processes"
         else "outputs DIFFER");
      ];
  }

type phi_candidate = {
  name : string;
  make : Sim.t -> Iface.suspector -> y:int -> Iface.querier;
}

let suspicion_candidate =
  {
    name = "query(X) := X ⊆ suspected_i";
    make =
      (fun sim suspector ~y ->
        let t = Sim.t_bound sim in
        {
          Iface.query =
            (fun i x ->
              let c = Pidset.cardinal x in
              if c <= t - y then true
              else if c > t then false
              else Pidset.subset x (suspector.Iface.suspected i));
        });
  }

let thm10_pair ~n ~t ~x ~y ?(candidate = suspicion_candidate) ~seed () =
  let title =
    Printf.sprintf
      "Thm 10: S_%d cannot be transformed into ◇φ_%d (candidate: %s)" x y
      candidate.name
  in
  let tau0 = 10.0 and tau1 = 60.0 in
  let esize = t - y + 1 in
  if esize > t || esize < 1 || esize >= n then
    { title; ok = false; details = [ "bad parameters: need 1 <= t-y+1 <= t < n" ] }
  else begin
    (* E = the last t-y+1 processes; observer p0 is correct in both runs. *)
    let e_set = Pidset.of_list (List.init esize (fun i -> n - 1 - i)) in
    (* The S_x-legal suspector used in BOTH runs: from tau0 on, everybody
       suspects exactly E.  Perpetual accuracy holds with Q = any x
       processes since p0 ∉ E is never suspected; completeness is eventual,
       hence unconstrained on the finite window. *)
    let make_suspector sim =
      {
        Iface.suspected =
          (fun _i -> if Sim.now sim >= tau0 then e_set else Pidset.empty);
      }
    in
    let observe ~crash_e =
      let sim = Sim.create ~horizon:400.0 ~n ~t ~seed () in
      if crash_e then
        Sim.install_crashes sim (Pidset.fold (fun p acc -> (p, tau0) :: acc) e_set []);
      let suspector = make_suspector sim in
      let q = candidate.make sim suspector ~y in
      idle_run_until sim tau1;
      q.Iface.query 0 e_set
    in
    let ans_r1 = observe ~crash_e:true in
    let ans_r2 = observe ~crash_e:false in
    let same = Bool.equal ans_r1 ans_r2 in
    let liveness_r1 = ans_r1 in
    let safety_r2_violated = ans_r2 in
    let verdict_ok = same && (not liveness_r1 || safety_r2_violated) in
    (* [same] must hold by determinism; then either R1 liveness already
       fails, or R2 safety is violated — both refute the candidate, which is
       what the theorem predicts. *)
    {
      title;
      ok = verdict_ok && (safety_r2_violated || not liveness_r1);
      details =
        [
          Printf.sprintf "E = %s crashes at %.0f in R1, is silent-but-alive in R2"
            (Pidset.to_string e_set) tau0;
          Printf.sprintf "query(E) at τ1=%.0f: R1 = %b, R2 = %b (identical inputs ⇒ %s)"
            tau1 ans_r1 ans_r2
            (if same then "identical, as predicted" else "DIFFER — determinism broken");
          (if liveness_r1 && safety_r2_violated then
             "candidate meets liveness in R1, hence violates eventual safety in R2"
           else if not liveness_r1 then
             "candidate already fails liveness in R1 (dead region denied)"
           else "unexpected combination");
        ];
    }
  end

let thm12_pair ~n ~t ~z ~y ~seed =
  let title =
    Printf.sprintf "Thm 12: Omega_%d cannot be transformed into ◇φ_%d" z y
  in
  ignore seed;
  let tau0 = 10.0 and tau1 = 60.0 in
  let esize = t - y + 1 in
  if esize > t || esize < 1 || esize + z > n then
    { title; ok = false; details = [ "bad parameters" ] }
  else begin
    (* The trusted set: the first z processes, correct in both runs; the
       probed region E: the last t-y+1 processes. *)
    let lset = Pidset.of_list (List.init z Fun.id) in
    let e_set = Pidset.of_list (List.init esize (fun i -> n - 1 - i)) in
    (* The candidate querier someone might build from Omega_z: trust the
       leader set, declare a region dead iff it has been disjoint from the
       trusted set "long enough".  Since trusted never changes, this is a
       pure function of the (constant) Omega output and the clock. *)
    let observe ~crash_e =
      let sim = Sim.create ~horizon:400.0 ~n ~t ~seed () in
      if crash_e then
        Sim.install_crashes sim (Pidset.fold (fun p acc -> (p, tau0) :: acc) e_set []);
      let trusted _i = lset in
      let query _i x =
        let c = Pidset.cardinal x in
        if c <= t - y then true
        else if c > t then false
        else Pidset.disjoint x (trusted 0) && Sim.now sim > tau0 +. 20.0
      in
      idle_run_until sim tau1;
      query 0 e_set
    in
    let r1 = observe ~crash_e:true in
    let r2 = observe ~crash_e:false in
    let same = Bool.equal r1 r2 in
    {
      title;
      ok = same && (r2 || not r1);
      (* Identical answers; then true in R2 = safety violation (E alive),
         false in R1 = liveness violation (E dead and repeatedly queried
         after tau1): either way the candidate is refuted, as the theorem
         demands for every candidate. *)
      details =
        [
          Printf.sprintf "constant Omega_%d output %s in both runs; E = %s" z
            (Pidset.to_string lset) (Pidset.to_string e_set);
          Printf.sprintf "query(E) at τ1: crash-run = %b, no-crash run = %b%s" r1 r2
            (if same then " (identical, as predicted)" else " (DIFFER!)");
          (if r1 && r2 then "liveness met in R1 ⇒ eventual safety violated in R2"
           else if (not r1) && not r2 then "safety met in R2 ⇒ liveness violated in R1"
           else "runs distinguished — not a pure function of the Omega output");
        ];
    }
  end
