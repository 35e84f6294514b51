open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_runner

(* ---- fault mixes ---- *)

let half n = List.init (n / 2) Fun.id

let mixes : (string * (n:int -> t:int -> Faults.t)) list =
  [
    ("none", fun ~n:_ ~t:_ -> Faults.none);
    ( "drop",
      fun ~n:_ ~t:_ ->
        {
          Faults.none with
          Faults.links = [ Faults.link ~drop:0.7 ~from:5.0 ~until:35.0 () ];
        } );
    ( "dup_reorder",
      fun ~n:_ ~t:_ ->
        {
          Faults.none with
          Faults.links =
            [ Faults.link ~dup:0.4 ~reorder:0.5 ~spread:4.0 ~from:0.0 ~until:40.0 () ];
        } );
    ( "inflate",
      fun ~n:_ ~t:_ ->
        {
          Faults.none with
          Faults.links = [ Faults.link ~inflate:4.0 ~from:0.0 ~until:40.0 () ];
        } );
    ( "partition",
      fun ~n ~t:_ ->
        {
          Faults.none with
          Faults.partitions =
            [ Faults.partition ~name:"halves" ~groups:[ half n ] ~from:5.0 ~heal:45.0 () ];
        } );
    ( "stalls",
      fun ~n ~t:_ ->
        {
          Faults.none with
          Faults.stalls =
            [
              Faults.stall ~pid:0 ~from:10.0 ~until:30.0;
              Faults.stall ~pid:(min 1 (n - 1)) ~from:15.0 ~until:40.0;
            ];
        } );
    ("rotating", fun ~n:_ ~t:_ -> { Faults.none with Faults.adversary = "rotating" });
    ("slander", fun ~n:_ ~t:_ -> { Faults.none with Faults.adversary = "slander" });
    ( "combo",
      fun ~n ~t ->
        {
          Faults.links = [ Faults.link ~drop:0.3 ~dup:0.2 ~from:0.0 ~until:30.0 () ];
          partitions =
            [ Faults.partition ~name:"late-split" ~groups:[ half n ] ~from:30.0 ~heal:50.0 () ];
          stalls = [ Faults.stall ~pid:(n - 1) ~from:10.0 ~until:25.0 ];
          crashes =
            (if t >= 1 then Crash.Exactly { crashes = 1; window = (0.0, 20.0) }
             else Crash.No_crashes);
          adversary = "late";
        } );
  ]

let mix_names = List.map fst mixes
let find_mix name = List.assoc_opt name mixes
let default_protocols = [ "kset"; "consensus_s"; "wheels" ]

(* ---- failures ---- *)

type kind = Safety | Liveness | Illegal

let kind_to_string = function
  | Safety -> "safety"
  | Liveness -> "liveness"
  | Illegal -> "illegal"

type failure = {
  f_protocol : string;
  f_mix : string;
  f_kind : kind;
  f_notes : string list;
  f_params : Protocol.params;
}

let minimize_failure pk (p : Protocol.params) ~kind =
  let fails spec =
    match Faults.legal ~n:p.Protocol.n ~t:p.Protocol.t spec with
    | Error _ -> false
    | Ok () -> (
        let r = Protocol.run pk { p with Protocol.faults = spec } in
        match kind with
        | Safety -> r.Protocol.rp_violations <> []
        | Liveness -> not (Check.verdict_ok r.Protocol.rp_verdict)
        | Illegal -> false)
  in
  let kept =
    Explore.ddmin
      ~test:(fun els -> fails (Faults.of_elements els))
      ~budget:40
      (Faults.elements p.Protocol.faults)
  in
  Faults.of_elements kept

let minimize_illegal ~n ~t spec =
  let illegal s = Result.is_error (Faults.legal ~n ~t s) in
  if not (illegal spec) then None
  else
    Some
      (Faults.of_elements
         (Explore.ddmin
            ~test:(fun els -> illegal (Faults.of_elements els))
            (Faults.elements spec)))

let reproduce f =
  let p = f.f_params in
  match f.f_kind with
  | Illegal -> (
      match Faults.legal ~n:p.Protocol.n ~t:p.Protocol.t p.Protocol.faults with
      | Error errs -> Some (true, errs)
      | Ok () -> Some (false, [ "spec is legal" ]))
  | (Safety | Liveness) as k -> (
      match Protocol.find f.f_protocol with
      | None -> None
      | Some pk ->
          let r = Protocol.run pk p in
          if k = Safety then
            Some (r.Protocol.rp_violations <> [], r.Protocol.rp_violations)
          else
            Some
              ( not (Check.verdict_ok r.Protocol.rp_verdict),
                r.Protocol.rp_verdict.Check.notes ))

(* ---- JSON ---- *)

let failure_core_json f =
  Json.Obj
    [
      ("protocol", Json.String f.f_protocol);
      ("mix", Json.String f.f_mix);
      ("seed", Json.Int f.f_params.Protocol.seed);
      ("kind", Json.String (kind_to_string f.f_kind));
      ("notes", Json.List (List.map (fun s -> Json.String s) f.f_notes));
      ("params", Json.Obj (Protocol.params_to_json f.f_params));
    ]

let failure_of_json = function
  | Json.Obj fields ->
      let str name d =
        match List.assoc_opt name fields with
        | Some (Json.String s) -> s
        | _ -> d
      in
      let notes =
        match List.assoc_opt "notes" fields with
        | Some (Json.List l) ->
            List.filter_map (function Json.String s -> Some s | _ -> None) l
        | _ -> []
      in
      let params =
        match List.assoc_opt "params" fields with
        | Some (Json.Obj p) ->
            Result.map_error (fun e -> "params: " ^ e) (Protocol.params_of_json p)
        | _ -> Ok Protocol.default
      in
      let kind =
        match str "kind" "safety" with
        | "liveness" -> Liveness
        | "illegal" -> Illegal
        | _ -> Safety
      in
      Result.map
        (fun params ->
          {
            f_protocol = str "protocol" "";
            f_mix = str "mix" "";
            f_kind = kind;
            f_notes = notes;
            f_params = params;
          })
        params
  | _ -> Error "expected an object"

(* Each record's replay line names the file it is written to. *)
let write_failures ?(dir = "_results") fails =
  Files.mkdir_p dir;
  let path = Filename.concat dir "chaos_failures.json" in
  let record index f =
    match failure_core_json f with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ( "replay",
                Json.String
                  (Printf.sprintf "dune exec bin/fdkit.exe -- replay --faults %s --index %d"
                     path index) );
            ])
    | j -> j
  in
  Json.write_file path
    (Json.Obj (Stamp.fields () @ [ ("failures", Json.List (List.mapi record fails)) ]));
  path

let load_failures path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.of_string s with
      | Error e -> Error e
      | Ok j ->
          let l =
            match j with
            | Json.Obj fields -> (
                match List.assoc_opt "failures" fields with
                | Some (Json.List l) -> l
                | _ -> [])
            | Json.List l -> l
            | _ -> []
          in
          Ok (List.map failure_of_json l))

(* ---- campaigns ---- *)

type outcome = {
  o_campaign : Runner.campaign;
  o_runs : int;
  o_safety : int;
  o_liveness : int;
  o_failures : failure list;
}

(* Widen the horizon so every built-in mix both heals and (for the
   adversary strategies) stabilizes well before the end of the run —
   liveness-after-heal is then assertable on every job. *)
let job_horizon (base : Protocol.params) faults =
  let heal = Faults.heal_time faults in
  let adv_gst =
    if faults.Faults.adversary = "" then base.Protocol.gst
    else
      let g =
        (Behavior.of_adversary faults.Faults.adversary ~gst:base.Protocol.gst)
          .Behavior.gst
      in
      if Float.is_finite g then g else 0.0
  in
  let b = if base.Protocol.horizon > 0.0 then base.Protocol.horizon else 400.0 in
  Float.max b (Float.max heal adv_gst +. 300.0)

(* One chaos cell.  Its cache key covers everything the outcome depends
   on — the per-protocol code fingerprint, the job kind, and the fully
   instantiated params (the mix is baked into [p.faults], but the mix
   name is part of the label and params, so renames invalidate too). *)
let mk_job ~fingerprint pk pname mixname mk (base : Protocol.params) seed =
  let faults = mk ~n:base.Protocol.n ~t:base.Protocol.t in
  let p =
    { base with Protocol.seed; faults; horizon = job_horizon base faults }
  in
  let label = Printf.sprintf "%s/%s/seed=%d" pname mixname seed in
  let params = ("mix", Json.String mixname) :: Protocol.params_to_json p in
  Runner.job ~exp:"chaos" ~label ~params
    ~key:
      (Runner.Cache.job_key ~fingerprint:(fingerprint pname) ~kind:"chaos"
         [ label; Json.to_string ~minify:true (Json.Obj params) ])
    ~seed
    (fun () ->
      match Faults.legal ~n:p.Protocol.n ~t:p.Protocol.t faults with
      | Error errs ->
          (* An illegal spec never runs: catch it, shrink it to the
             offending atoms, and record it like any other failure. *)
          let spec =
            match minimize_illegal ~n:p.Protocol.n ~t:p.Protocol.t faults with
            | Some s -> s
            | None -> faults
          in
          let fail =
            {
              f_protocol = pname;
              f_mix = mixname;
              f_kind = Illegal;
              f_notes = errs;
              f_params = { p with Protocol.faults = spec };
            }
          in
          Runner.body ~notes:("illegal spec" :: errs)
            ~extra:(failure_core_json fail) false
      | Ok () ->
          let r = Protocol.run pk p in
          let safety_ok = r.Protocol.rp_violations = [] in
          let healed = Faults.heal_time faults +. 100.0 <= p.Protocol.horizon in
          let live_ok = Check.verdict_ok r.Protocol.rp_verdict in
          if safety_ok && ((not healed) || live_ok) then
            Runner.body ~metrics:r.Protocol.rp_metrics true
          else begin
            let kind = if not safety_ok then Safety else Liveness in
            let notes =
              if not safety_ok then r.Protocol.rp_violations
              else r.Protocol.rp_verdict.Check.notes
            in
            let spec = minimize_failure pk p ~kind in
            let fail =
              {
                f_protocol = pname;
                f_mix = mixname;
                f_kind = kind;
                f_notes = notes;
                f_params = { p with Protocol.faults = spec };
              }
            in
            Runner.body
              ~notes:(kind_to_string kind :: notes)
              ~metrics:r.Protocol.rp_metrics
              ~extra:(failure_core_json fail) false
          end)

let jobs ~fingerprint ~protocols ~mixes:names ~seeds base =
  let chosen = List.filter (fun (nm, _) -> List.mem nm names) mixes in
  List.concat_map
    (fun pname ->
      match Protocol.find pname with
      | None -> []
      | Some pk ->
          List.concat_map
            (fun (mixname, mk) ->
              List.init seeds (fun i ->
                  mk_job ~fingerprint pk pname mixname mk base (i + 1)))
            chosen)
    protocols

let outcome c =
  let fails =
    Array.to_list c.Runner.c_results
    |> List.filter_map (fun r -> Result.to_option (failure_of_json r.Runner.r_extra))
  in
  {
    o_campaign = c;
    o_runs = Array.length c.Runner.c_results;
    o_safety = List.length (List.filter (fun f -> f.f_kind = Safety) fails);
    o_liveness = List.length (List.filter (fun f -> f.f_kind = Liveness) fails);
    o_failures = fails;
  }
