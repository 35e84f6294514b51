(* The unified job API: one serializable description of everything
   fdkit can execute — a single run, a seed-sweep campaign, a chaos
   campaign, a schedule exploration, or a counterexample replay.

   The CLI subcommands elaborate their flags into a [spec] (of_flags),
   the [fdkit serve] daemon receives specs as JSON over its socket, and
   both execute through the same [execute] and write what it returns
   through the same [write_artifacts] below — so a campaign launched
   from the command line and the same campaign submitted to the daemon
   produce byte-identical artifacts (triage files included) and share
   one result cache.

   [canonical] renders a spec as minified JSON with a fixed field
   order; it doubles as the basis of the cache key (together with the
   per-protocol code fingerprint), so "same spec" and "same cache
   entry" are the same notion by construction. *)

open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_runner

type source = Schedule_file | Faults_file

type spec =
  | Run of { protocol : string; params : Protocol.params }
  | Campaign of { protocol : string; seeds : int; params : Protocol.params }
  | Chaos of {
      protocols : string list;
      mixes : string list;
      seeds : int;
      base : Protocol.params;
    }
  | Explore of {
      protocol : string;
      params : Protocol.params;
      bounds : Explorer.bounds;
    }
  | Replay of { source : source; path : string; index : int }

let source_to_string = function
  | Schedule_file -> "schedule"
  | Faults_file -> "faults"

let kind = function
  | Run _ -> "run"
  | Campaign _ -> "campaign"
  | Chaos _ -> "chaos"
  | Explore _ -> "explore"
  | Replay _ -> "replay"

(* ---- serialization ---- *)

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let to_json spec =
  let params p = Json.Obj (Protocol.params_to_json p) in
  Json.Obj
    (("kind", Json.String (kind spec))
    ::
    (match spec with
    | Run { protocol; params = p } ->
        [ ("protocol", Json.String protocol); ("params", params p) ]
    | Campaign { protocol; seeds; params = p } ->
        [
          ("protocol", Json.String protocol);
          ("seeds", Json.Int seeds);
          ("params", params p);
        ]
    | Chaos { protocols; mixes; seeds; base } ->
        [
          ("protocols", strings protocols);
          ("mixes", strings mixes);
          ("seeds", Json.Int seeds);
          ("params", params base);
        ]
    | Explore { protocol; params = p; bounds } ->
        [
          ("protocol", Json.String protocol);
          ("params", params p);
          ("bounds", Json.Obj (Explorer.bounds_to_json bounds));
        ]
    | Replay { source; path; index } ->
        [
          ("source", Json.String (source_to_string source));
          ("path", Json.String path);
          ("index", Json.Int index);
        ]))

(* A missing field takes its default; one of the wrong JSON type refuses
   the spec, naming the field.  Unknown fields are ignored. *)
let of_json j =
  let ( let* ) = Result.bind in
  let required name = Json.required name ~what:"a string" Json.to_string_opt j in
  let int name d = Json.field name ~what:"an int" Json.to_int_opt ~default:d j in
  let obj name decode d =
    match Json.member name j with
    | None -> Ok d
    | Some (Json.Obj l) -> Result.map_error (Printf.sprintf "%S: %s" name) (decode l)
    | Some _ -> Error (Printf.sprintf "%S must be an object" name)
  in
  let params () = obj "params" Protocol.params_of_json Protocol.default in
  (* An empty list also takes the default. *)
  let strings name d =
    Json.field name ~what:"a list of strings"
      (function
        | Json.List l ->
            let ss = List.filter_map Json.to_string_opt l in
            if List.compare_lengths ss l <> 0 then None else if ss = [] then Some d else Some ss
        | _ -> None)
      ~default:d j
  in
  let* kind = Result.map_error (( ^ ) "job spec: ") (required "kind") in
  Result.map_error (Printf.sprintf "%s spec: %s" kind)
    (match kind with
    | "run" ->
        let* protocol = required "protocol" in
        let* params = params () in
        Ok (Run { protocol; params })
    | "campaign" ->
        let* protocol = required "protocol" in
        let* seeds = int "seeds" 32 in
        let* params = params () in
        Ok (Campaign { protocol; seeds; params })
    | "chaos" ->
        let* protocols = strings "protocols" Chaos.default_protocols in
        let* mixes = strings "mixes" Chaos.mix_names in
        let* seeds = int "seeds" 8 in
        let* base = params () in
        Ok (Chaos { protocols; mixes; seeds; base })
    | "explore" ->
        let* protocol = required "protocol" in
        let* params = params () in
        let* bounds = obj "bounds" Explorer.bounds_of_json Explorer.default_bounds in
        Ok (Explore { protocol; params; bounds })
    | "replay" ->
        let* path = required "path" in
        let* source =
          Json.field "source" ~what:{|"schedule" or "faults"|}
            (function
              | Json.String "schedule" -> Some Schedule_file
              | Json.String "faults" -> Some Faults_file
              | _ -> None)
            ~default:Schedule_file j
        in
        let* index = int "index" 0 in
        Ok (Replay { source; path; index })
    | _ -> Error "unknown job kind")

let canonical spec = Json.to_string ~minify:true (to_json spec)
let equal a b = canonical a = canonical b

(* Quarantine/handoff helper: persist a spec as a standalone JSON file
   that [fdkit submit --spec <path>] accepts verbatim.  [None] on write
   failure — callers (the daemon's poison path) degrade gracefully. *)
let write_spec ~dir ~name spec =
  try
    Files.mkdir_p dir;
    let path = Filename.concat dir name in
    Json.write_file path (to_json spec);
    Some path
  with Sys_error _ -> None

let summary spec =
  match spec with
  | Run { protocol; params } ->
      Printf.sprintf "run %s seed=%d" protocol params.Protocol.seed
  | Campaign { protocol; seeds; _ } ->
      Printf.sprintf "campaign %s seeds=1..%d" protocol seeds
  | Chaos { protocols; mixes; seeds; _ } ->
      Printf.sprintf "chaos %s x %d mix(es) x %d seed(s)"
        (String.concat "," protocols)
        (List.length mixes) seeds
  | Explore { protocol; bounds; _ } ->
      Printf.sprintf "explore %s depth=%d walks=%d" protocol
        bounds.Explorer.depth bounds.Explorer.walks
  | Replay { source; path; index } ->
      Printf.sprintf "replay --%s %s --index %d" (source_to_string source) path
        index

(* ---- flag elaboration (the CLI subcommands are sugar over this) ---- *)

let of_flags ?(seeds = 32) ?(protocols = []) ?(mixes = []) ?(honest = false)
    ?bounds ~kind ~protocol (base : Protocol.params) =
  match kind with
  | `Run -> Run { protocol; params = base }
  | `Campaign -> Campaign { protocol; seeds; params = base }
  | `Chaos ->
      Chaos
        {
          protocols =
            (match protocols with [] -> Chaos.default_protocols | l -> l);
          mixes = (match mixes with [] -> Chaos.mix_names | l -> l);
          seeds;
          base;
        }
  | `Explore ->
      (* Exploration defaults: the adversary owns the schedule, so a
         short horizon suffices and (for kset) the mis-use wiring is on
         unless --honest is given. *)
      let params =
        {
          base with
          Protocol.adversarial = base.Protocol.adversarial || not honest;
          horizon =
            (if base.Protocol.horizon > 0.0 then base.Protocol.horizon else 300.0);
        }
      in
      Explore
        {
          protocol;
          params;
          bounds = Option.value ~default:Explorer.default_bounds bounds;
        }

(* ---- validation ---- *)

let registry_hint () =
  Printf.sprintf "protocols: %s" (String.concat ", " (Protocol.names ()))

(* The record a replay spec names, or why it cannot be replayed: the
   file loads, the index is in range, and the protocol is registered.
   [validate] rejects a spec for the reason; the replay job checks again,
   since the file can change between submit and execution. *)
let replay_target source path index =
  let pick ~none ~unit load =
    match load path with
    | Error e -> Error (Printf.sprintf "cannot load %s: %s" path e)
    | Ok [] -> Error (Printf.sprintf "%s: no %s recorded" path none)
    | Ok l -> (
        match List.filteri (fun i _ -> i = index) l with
        | [ Ok x ] -> Ok x
        | [ Error e ] ->
            Error (Printf.sprintf "%s: record %d does not decode: %s" path index e)
        | _ ->
            Error
              (Printf.sprintf "--index %d out of range (%d %s)" index
                 (List.length l) unit))
  in
  match source with
  | Faults_file ->
      Result.bind
        (pick ~none:"chaos failures" ~unit:"failure(s)" Chaos.load_failures)
        (fun f ->
          if f.Chaos.f_kind <> Chaos.Illegal && Protocol.find f.Chaos.f_protocol = None
          then Error (Printf.sprintf "unknown protocol %S" f.Chaos.f_protocol)
          else Ok (`Failure f))
  | Schedule_file ->
      Result.bind
        (pick ~none:"counterexamples" ~unit:"counterexample(s)"
           Explorer.load_counterexamples)
        (fun s ->
          if Protocol.find s.Schedule.protocol = None then
            Error ("replay: unknown protocol " ^ s.Schedule.protocol)
          else Ok (`Schedule s))

(* The execution substrates: the simulator, then the real runtime over
   UDP and over in-process channels. *)
let rt_backends = [ "rt"; "rt-chan" ]
let backends = "sim" :: rt_backends
let is_rt backend = List.mem backend rt_backends

let validate spec =
  let known_protocol name errs =
    if Protocol.find name = None then
      Printf.sprintf "unknown protocol %S; %s" name (registry_hint ()) :: errs
    else errs
  in
  (* Ranges come from the code that enforces them: the simulator's size
     precondition, each protocol's variant table and constructor ranges,
     fault-spec legality, the backend list, the trace level parser. *)
  let protocol_errors (p : Protocol.params) name =
    match Protocol.find name with
    | None -> []
    | Some (module P) ->
        if P.variants <> [] && not (List.mem p.Protocol.variant P.variants) then
          [
            Printf.sprintf "unknown %s variant %S; variants: %s" name p.Protocol.variant
              (String.concat ", " P.variants);
          ]
        else List.map (Printf.sprintf "%s: %s" name) (P.validate p)
  in
  let checked protocols (p : Protocol.params) errs =
    let size =
      match Sim.check_size ~n:p.Protocol.n ~t:p.Protocol.t with
      | Ok () -> []
      | Error e -> [ Printf.sprintf "n=%d t=%d: %s" p.Protocol.n p.Protocol.t e ]
    in
    let faults =
      match Faults.legal ~n:p.Protocol.n ~t:p.Protocol.t p.Protocol.faults with
      | Ok () -> []
      | Error es -> List.map (fun e -> "illegal fault spec: " ^ e) es
    in
    let backend =
      if List.mem p.Protocol.backend backends then []
      else
        [
          Printf.sprintf "unknown backend %S; backends: %s" p.Protocol.backend
            (String.concat ", " backends);
        ]
    in
    let trace =
      match Trace.level_of_string p.Protocol.trace with Ok _ -> [] | Error e -> [ e ]
    in
    size @ List.concat_map (protocol_errors p) protocols @ faults @ backend @ trace @ errs
  in
  let errs =
    match spec with
    | Run { protocol; params } | Explore { protocol; params; _ } ->
        known_protocol protocol (checked [ protocol ] params [])
    | Campaign { protocol; params; seeds } ->
        let errs = if seeds < 1 then [ "seeds must be >= 1" ] else [] in
        known_protocol protocol (checked [ protocol ] params errs)
    | Chaos { protocols; mixes; seeds; base } ->
        let errs = if seeds < 1 then [ "seeds must be >= 1" ] else [] in
        let errs =
          List.fold_right known_protocol protocols (checked protocols base errs)
        in
        List.fold_right
          (fun m errs ->
            if Chaos.find_mix m = None then
              Printf.sprintf "unknown mix %S; mixes: %s" m
                (String.concat ", " Chaos.mix_names)
              :: errs
            else errs)
          mixes errs
    | Replay { source; path; index } ->
        let errs = if index < 0 then [ "index must be >= 0" ] else [] in
        if not (Sys.file_exists path) then Printf.sprintf "no such file: %s" path :: errs
        else if errs <> [] then errs
        else (
          match replay_target source path index with
          | Ok _ -> []
          | Error e -> [ e ])
  in
  if errs = [] then Ok () else Error errs

(* ---- execution ---- *)

(* Real-runtime execution (backend "rt"/"rt-chan") lives above this
   library (Setagree_rt depends on core); the CLI installs its runner
   here at startup.  Jobs on an rt backend are never cached — their
   outcomes are wall-clock-dependent. *)
let rt_runner : (Protocol.packed -> Protocol.params -> Runner.body) option ref =
  ref None

(* A float flag that parses back to itself: [%g] whenever that
   round-trips, so such replays keep a stable text; all digits otherwise. *)
let float_flag f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* The flags name no fault spec, and their crash flag means [--crashes 0]
   = none, [--crashes c] = c random crashes in [0, 20). *)
let replay_command family (p : Protocol.params) =
  let crashes =
    match p.Protocol.crashes with
    | Crash.No_crashes | Crash.Explicit [] -> Some 0
    | Crash.Exactly { crashes; window = 0.0, 20.0 } when crashes >= 0 -> Some crashes
    | _ -> None
  in
  match crashes with
  | Some crashes when Faults.equal p.Protocol.faults Faults.none ->
      Some
        (Printf.sprintf
           "dune exec bin/fdkit.exe -- run --protocol %s -n %d -t %d -z %d -k %d -x %d \
            -y %d --crashes %d --gst %s --horizon %s --variant %s --seed %d%s%s"
           family p.Protocol.n p.Protocol.t p.Protocol.z p.Protocol.k p.Protocol.x
           p.Protocol.y crashes (float_flag p.Protocol.gst)
           (float_flag p.Protocol.horizon) p.Protocol.variant p.Protocol.seed
           (if p.Protocol.backend = "sim" then "" else " --backend " ^ p.Protocol.backend)
           (if p.Protocol.adversarial then " --adversarial" else ""))
  | _ -> None

let sim_body pk (p : Protocol.params) =
  let r = Protocol.run pk p in
  Runner.body
    ~notes:
      (if Check.verdict_ok r.Protocol.rp_verdict then []
       else r.Protocol.rp_verdict.Check.notes)
    ~metrics:r.Protocol.rp_metrics
    (Check.verdict_ok r.Protocol.rp_verdict)

let protocol_body pk (p : Protocol.params) =
  if is_rt p.Protocol.backend then
    match !rt_runner with
    | Some rt -> rt pk p
    | None ->
        Runner.body
          ~notes:[ "rt backend not available in this process" ]
          false
  else sim_body pk p

(* One job of a single-protocol sweep (Run is a 1-seed Campaign). *)
let protocol_job ~fingerprint protocol pk (base : Protocol.params) seed =
  let p = { base with Protocol.seed } in
  let key =
    (* rt outcomes are wall-clock-dependent: never content-address them. *)
    if is_rt p.Protocol.backend then None
    else
      Some
        (Runner.Cache.job_key ~fingerprint:(fingerprint protocol) ~kind:"run"
           [
             protocol;
             Json.to_string ~minify:true (Json.Obj (Protocol.params_to_json p));
           ])
  in
  Runner.job ~exp:protocol ~seed
    ~params:(Protocol.params_to_json p)
    ?replay:(replay_command protocol p)
    ?key
    (fun () -> protocol_body pk p)

type outcome = {
  o_spec : spec;
  o_campaign : Runner.campaign;
  o_chaos : Chaos.outcome option;  (** chaos specs only *)
  o_ces : Schedule.t list;  (** explore specs only *)
  o_exit : int;  (** CLI-convention exit code, see {!execute} *)
}

let reproduced_line ok = if ok then "reproduced" else "NOT reproduced"

(* A replay job's row is what [fdkit replay] prints. *)
let replay_body source path index () =
  match replay_target source path index with
  | Error e -> Runner.body ~notes:[ e ] false
  | Ok (`Failure f) -> (
      let header =
        Printf.sprintf "replaying chaos failure %s/%s seed=%d kind=%s\n  spec: %s"
          f.Chaos.f_protocol f.Chaos.f_mix f.Chaos.f_params.Protocol.seed
          (Chaos.kind_to_string f.Chaos.f_kind)
          (Faults.summary f.Chaos.f_params.Protocol.faults)
      in
      match Chaos.reproduce f with
      | None -> Runner.body ~notes:[ "unknown protocol " ^ f.Chaos.f_protocol ] false
      | Some (reproduced, notes) ->
          Runner.body
            ~notes:(if reproduced then [] else "NOT reproduced" :: notes)
            ~row:
              (Printf.sprintf "%s\nrecorded: %s\nreplayed: %s\n%s" header
                 (String.concat "; " f.Chaos.f_notes)
                 (String.concat "; " notes) (reproduced_line reproduced))
            reproduced)
  | Ok (`Schedule s) -> (
      match Explorer.replay s with
      | Error e -> Runner.body ~notes:[ e ] false
      | Ok (e, reproduced) ->
          Runner.body
            ~notes:(if reproduced then [] else [ "NOT reproduced" ])
            ~row:
              (Printf.sprintf
                 "replaying %s schedule %s\nrecorded violation: %s\n\
                  replayed violation: %s\n%s"
                 s.Schedule.protocol
                 (Format.asprintf "%a" Schedule.pp_choices s.Schedule.choices)
                 (String.concat "; " s.Schedule.violation)
                 (String.concat "; " e.Explore.ex_violation)
                 (reproduced_line reproduced))
            reproduced)

let execute ?jobs ?cache ?(fingerprint = Fingerprint.protocol) ?on_progress
    ?on_telemetry ?stop spec =
  let sweep protocol params seeds =
    match Protocol.find protocol with
    | None -> invalid_arg ("Job.execute: unknown protocol " ^ protocol)
    | Some pk -> List.map (protocol_job ~fingerprint protocol pk params) seeds
  in
  let exp, joblist =
    match spec with
    | Run { protocol; params } ->
        (protocol, sweep protocol params [ params.Protocol.seed ])
    | Campaign { protocol; seeds; params } ->
        (protocol, sweep protocol params (List.init seeds succ))
    | Chaos { protocols; mixes; seeds; base } ->
        ("chaos", Chaos.jobs ~fingerprint ~protocols ~mixes ~seeds base)
    | Explore { protocol; params; bounds } ->
        ("explore", Explorer.jobs ~fingerprint ~protocol params bounds)
    | Replay { source; path; index } ->
        ( "replay",
          [
            Runner.job ~exp:"replay" ~label:(summary spec) ~seed:index
              (replay_body source path index);
          ] )
  in
  (* Replays are unkeyed and bypass the cache. *)
  let cache = match spec with Replay _ -> None | _ -> cache in
  let c = Runner.run ?jobs ?cache ?on_progress ?on_telemetry ?stop ~exp joblist in
  let o_chaos = match spec with Chaos _ -> Some (Chaos.outcome c) | _ -> None in
  let o_exit =
    match (spec, o_chaos) with
    | _ when c.Runner.c_cancelled -> 4
    | _, Some o when o.Chaos.o_safety > 0 -> 2
    | _, Some o -> if o.Chaos.o_failures <> [] then 1 else 0
    | Explore _, _ -> 0
    | _ -> if Runner.failures c <> [] then 1 else 0
  in
  {
    o_spec = spec;
    o_campaign = c;
    o_chaos;
    o_ces = (match spec with Explore _ -> Explorer.counterexamples c | _ -> []);
    o_exit;
  }

(* The files of the spec's kind, each built from the outcome alone: the
   campaign artifact and the kind's triage file. *)
let write_artifacts ~dir o =
  let c = o.o_campaign in
  let write triage =
    try
      let art = Runner.write_artifact ~dir c in
      Ok (Some (art, triage ()))
    with Sys_error e -> Error ("artifact write failed: " ^ e)
  in
  match o.o_spec with
  | Run _ | Replay _ -> Ok None
  | Campaign _ -> write (fun () -> Runner.write_failures ~dir (Runner.failures c))
  | Chaos _ ->
      write (fun () -> Chaos.write_failures ~dir (Option.get o.o_chaos).Chaos.o_failures)
  | Explore { protocol; _ } ->
      write (fun () -> Explorer.write_counterexamples ~dir ~protocol o.o_ces)
