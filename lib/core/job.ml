(* The unified job API: one serializable description of everything
   fdkit can execute — a single run, a seed-sweep campaign, a chaos
   campaign, a schedule exploration, or a counterexample replay.

   The CLI subcommands elaborate their flags into a [spec] (of_flags),
   the [fdkit serve] daemon receives specs as JSON over its socket, and
   both execute through the same [execute] below — so a campaign
   launched from the command line and the same campaign submitted to
   the daemon produce byte-identical artifacts and share one result
   cache.

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

let of_json j =
  let str name = match Json.member name j with Some (Json.String s) -> Some s | _ -> None in
  let int name d = match Json.member name j with Some (Json.Int i) -> i | _ -> d in
  let fields name =
    match Json.member name j with Some (Json.Obj l) -> Some l | _ -> None
  in
  let params name =
    match fields name with
    | Some l -> Protocol.params_of_json l
    | None -> Protocol.default
  in
  let string_list name =
    match Json.member name j with
    | Some (Json.List l) ->
        List.filter_map (function Json.String s -> Some s | _ -> None) l
    | _ -> []
  in
  match str "kind" with
  | Some "run" -> (
      match str "protocol" with
      | Some protocol -> Ok (Run { protocol; params = params "params" })
      | None -> Error "run spec: missing \"protocol\"")
  | Some "campaign" -> (
      match str "protocol" with
      | Some protocol ->
          Ok (Campaign { protocol; seeds = int "seeds" 32; params = params "params" })
      | None -> Error "campaign spec: missing \"protocol\"")
  | Some "chaos" ->
      Ok
        (Chaos
           {
             protocols =
               (match string_list "protocols" with
               | [] -> Chaos.default_protocols
               | l -> l);
             mixes =
               (match string_list "mixes" with [] -> Chaos.mix_names | l -> l);
             seeds = int "seeds" 8;
             base = params "params";
           })
  | Some "explore" -> (
      match str "protocol" with
      | Some protocol ->
          Ok
            (Explore
               {
                 protocol;
                 params = params "params";
                 bounds =
                   Explorer.bounds_of_json
                     (Option.value ~default:[] (fields "bounds"));
               })
      | None -> Error "explore spec: missing \"protocol\"")
  | Some "replay" -> (
      match str "path" with
      | None -> Error "replay spec: missing \"path\""
      | Some path ->
          let source =
            match str "source" with
            | Some "faults" -> Faults_file
            | _ -> Schedule_file
          in
          Ok (Replay { source; path; index = int "index" 0 }))
  | Some k -> Error (Printf.sprintf "unknown job kind %S" k)
  | None -> Error "job spec: missing \"kind\""

let canonical spec = Json.to_string ~minify:true (to_json spec)
let equal a b = canonical a = canonical b

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Quarantine/handoff helper: persist a spec as a standalone JSON file
   that [fdkit submit --spec <path>] accepts verbatim.  [None] on write
   failure — callers (the daemon's poison path) degrade gracefully. *)
let write_spec ~dir ~name spec =
  try
    mkdir_p dir;
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

let validate spec =
  let known_protocol name errs =
    if Protocol.find name = None then
      Printf.sprintf "unknown protocol %S; %s" name (registry_hint ()) :: errs
    else errs
  in
  let legal_faults (p : Protocol.params) errs =
    match Faults.legal ~n:p.Protocol.n ~t:p.Protocol.t p.Protocol.faults with
    | Ok () -> errs
    | Error es -> List.map (fun e -> "illegal fault spec: " ^ e) es @ errs
  in
  let errs =
    match spec with
    | Run { protocol; params } -> known_protocol protocol (legal_faults params [])
    | Campaign { protocol; params; seeds } ->
        let errs = if seeds < 1 then [ "seeds must be >= 1" ] else [] in
        known_protocol protocol (legal_faults params errs)
    | Chaos { protocols; mixes; seeds; _ } ->
        let errs = if seeds < 1 then [ "seeds must be >= 1" ] else [] in
        let errs = List.fold_right known_protocol protocols errs in
        List.fold_right
          (fun m errs ->
            if Chaos.find_mix m = None then
              Printf.sprintf "unknown mix %S; mixes: %s" m
                (String.concat ", " Chaos.mix_names)
              :: errs
            else errs)
          mixes errs
    | Explore { protocol; params; _ } ->
        known_protocol protocol (legal_faults params [])
    | Replay { path; index; _ } ->
        let errs = if index < 0 then [ "index must be >= 0" ] else [] in
        if Sys.file_exists path then errs
        else Printf.sprintf "no such file: %s" path :: errs
  in
  if errs = [] then Ok () else Error errs

(* ---- execution ---- *)

(* Real-runtime execution (backend "rt"/"rt-chan") lives above this
   library (Setagree_rt depends on core); the CLI installs its runner
   here at startup.  Jobs on an rt backend are never cached — their
   outcomes are wall-clock-dependent. *)
let rt_runner : (Protocol.packed -> Protocol.params -> Runner.body) option ref =
  ref None

let is_rt backend = String.length backend >= 2 && String.sub backend 0 2 = "rt"

let crashes_count = function
  | Crash.No_crashes -> 0
  | Crash.Exactly { crashes; _ } -> crashes
  | Crash.Random_up_to { max_crashes; _ } -> max_crashes
  | Crash.Explicit l -> List.length l
  | Crash.Initial l -> List.length l

let replay_command family (p : Protocol.params) =
  Printf.sprintf
    "dune exec bin/fdkit.exe -- run --protocol %s -n %d -t %d -z %d -k %d -x %d -y %d \
     --crashes %d --gst %g --horizon %g --variant %s --seed %d%s%s"
    family p.Protocol.n p.Protocol.t p.Protocol.z p.Protocol.k p.Protocol.x p.Protocol.y
    (crashes_count p.Protocol.crashes)
    p.Protocol.gst p.Protocol.horizon p.Protocol.variant p.Protocol.seed
    (if p.Protocol.backend = "sim" then "" else " --backend " ^ p.Protocol.backend)
    (if p.Protocol.adversarial then " --adversarial" else "")

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
let protocol_job ~fingerprint ~exp protocol pk (base : Protocol.params) seed =
  let p = { base with Protocol.seed } in
  let key =
    (* rt outcomes are wall-clock-dependent: never content-address them. *)
    if is_rt p.Protocol.backend then None
    else
      Some
        (Runner.Cache.key
           ~parts:
             [
               string_of_int Stamp.schema_version;
               fingerprint protocol;
               "run";
               protocol;
               Json.to_string ~minify:true (Json.Obj (Protocol.params_to_json p));
             ])
  in
  Runner.job ~exp ~seed
    ~params:(Protocol.params_to_json p)
    ~replay:(replay_command protocol p)
    ?key
    (fun () -> protocol_body pk p)

type outcome = {
  o_spec : spec;
  o_campaign : Runner.campaign;
  o_chaos : Chaos.outcome option;  (** chaos specs only *)
  o_ces : Schedule.t list;  (** explore specs only *)
  o_exit : int;  (** CLI-convention exit code, see {!execute} *)
}

let campaign_exit c =
  if c.Runner.c_cancelled then 4
  else if Runner.failures c <> [] then 1
  else 0

let replay_body source path index () =
  match source with
  | Faults_file -> (
      match Chaos.load_failures path with
      | Error e -> Runner.body ~notes:[ "cannot load " ^ path ^ ": " ^ e ] false
      | Ok l -> (
          match List.nth_opt l index with
          | None ->
              Runner.body
                ~notes:
                  [ Printf.sprintf "index %d out of range (%d failure(s))" index (List.length l) ]
                false
          | Some f -> (
              match Chaos.reproduce f with
              | None ->
                  Runner.body ~notes:[ "unknown protocol " ^ f.Chaos.f_protocol ] false
              | Some (reproduced, notes) ->
                  Runner.body
                    ~notes:(if reproduced then [] else "NOT reproduced" :: notes)
                    reproduced)))
  | Schedule_file -> (
      match Explorer.load_counterexamples path with
      | Error e -> Runner.body ~notes:[ "cannot load " ^ path ^ ": " ^ e ] false
      | Ok l -> (
          match List.nth_opt l index with
          | None ->
              Runner.body
                ~notes:
                  [
                    Printf.sprintf "index %d out of range (%d counterexample(s))"
                      index (List.length l);
                  ]
                false
          | Some s -> (
              match Explorer.replay s with
              | Error e -> Runner.body ~notes:[ e ] false
              | Ok (_, reproduced) ->
                  Runner.body
                    ~notes:(if reproduced then [] else [ "NOT reproduced" ])
                    reproduced)))

let execute ?jobs ?cache ?(fingerprint = Fingerprint.protocol) ?on_progress
    ?on_telemetry ?telemetry_every_s ?stop spec =
  match spec with
  | Run { protocol; params } | Campaign { protocol; params; seeds = _ } -> (
      let seeds = match spec with Campaign { seeds; _ } -> seeds | _ -> 1 in
      match Protocol.find protocol with
      | None ->
          invalid_arg ("Job.execute: unknown protocol " ^ protocol)
      | Some pk ->
          let mk i =
            match spec with
            | Run _ -> protocol_job ~fingerprint ~exp:protocol protocol pk params params.Protocol.seed
            | _ -> protocol_job ~fingerprint ~exp:protocol protocol pk params (i + 1)
          in
          let joblist = List.init seeds mk in
          let c =
            Runner.run ?jobs ?cache ?on_progress ?on_telemetry
              ?telemetry_every_s ?stop ~exp:protocol joblist
          in
          {
            o_spec = spec;
            o_campaign = c;
            o_chaos = None;
            o_ces = [];
            o_exit = campaign_exit c;
          })
  | Chaos { protocols; mixes; seeds; base } ->
      let o =
        Chaos.run ?jobs ?cache ~fingerprint ?on_progress ?on_telemetry
          ?telemetry_every_s ?stop ~protocols
          ~mix_filter:mixes ~seeds ~base ()
      in
      let c = o.Chaos.o_campaign in
      let exit =
        if c.Runner.c_cancelled then 4
        else if o.Chaos.o_safety > 0 then 2
        else if o.Chaos.o_failures <> [] then 1
        else 0
      in
      { o_spec = spec; o_campaign = c; o_chaos = Some o; o_ces = []; o_exit = exit }
  | Explore { protocol; params; bounds } ->
      let o =
        Explorer.explore ?jobs ?cache ~fingerprint ?on_progress ?on_telemetry
          ?telemetry_every_s ?stop ~protocol
          params bounds
      in
      let c = o.Explorer.o_campaign in
      {
        o_spec = spec;
        o_campaign = c;
        o_chaos = None;
        o_ces = o.Explorer.o_ces;
        o_exit = (if c.Runner.c_cancelled then 4 else 0);
      }
  | Replay { source; path; index } ->
      let j =
        Runner.job ~exp:"replay"
          ~label:(summary spec)
          ~seed:index
          (replay_body source path index)
      in
      let c =
        Runner.run ~jobs:1 ?on_progress ?on_telemetry ?telemetry_every_s ?stop
          ~exp:"replay" [ j ]
      in
      {
        o_spec = spec;
        o_campaign = c;
        o_chaos = None;
        o_ces = [];
        o_exit = campaign_exit c;
      }
