open Setagree_util

type spec =
  | No_crashes
  | Explicit of (Pid.t * float) list
  | Initial of Pid.t list
  | Random_up_to of { max_crashes : int; window : float * float }
  | Exactly of { crashes : int; window : float * float }

let check ~t crashes =
  if List.length crashes > t then
    invalid_arg "Crash.generate: schedule exceeds the resilience bound t";
  crashes

let random_times rng ~n ~t ~count ~window:(lo, hi) =
  let count = min count t in
  let victims = Pidset.random rng ~n ~size:count in
  Pidset.fold (fun p acc -> (p, Rng.uniform_in rng lo hi) :: acc) victims []
  |> List.rev

let generate spec ~n ~t rng =
  match spec with
  | No_crashes -> []
  | Explicit l -> check ~t l
  | Initial pids -> check ~t (List.map (fun p -> (p, 0.0)) pids)
  | Random_up_to { max_crashes; window } ->
      let count = Rng.int rng (min max_crashes t + 1) in
      random_times rng ~n ~t ~count ~window
  | Exactly { crashes; window } -> random_times rng ~n ~t ~count:crashes ~window

let victims l = Pidset.of_list (List.map fst l)

(* ---- JSON (schedule files, triage records) ---- *)

let window_json (lo, hi) = Json.List [ Json.Float lo; Json.Float hi ]

let spec_to_json = function
  | No_crashes -> Json.Obj [ ("kind", Json.String "none") ]
  | Explicit l ->
      Json.Obj
        [
          ("kind", Json.String "explicit");
          ( "crashes",
            Json.List
              (List.map
                 (fun (p, tm) ->
                   Json.Obj [ ("pid", Json.Int p); ("time", Json.Float tm) ])
                 l) );
        ]
  | Initial pids ->
      Json.Obj
        [
          ("kind", Json.String "initial");
          ("pids", Json.List (List.map (fun p -> Json.Int p) pids));
        ]
  | Random_up_to { max_crashes; window } ->
      Json.Obj
        [
          ("kind", Json.String "random_up_to");
          ("max_crashes", Json.Int max_crashes);
          ("window", window_json window);
        ]
  | Exactly { crashes; window } ->
      Json.Obj
        [
          ("kind", Json.String "exactly");
          ("crashes", Json.Int crashes);
          ("window", window_json window);
        ]

let ( let* ) r f = Result.bind r f

let window =
  Json.required "window" ~what:"[lo, hi]" (function
    | Json.List [ lo; hi ] -> (
        match (Json.to_float_opt lo, Json.to_float_opt hi) with
        | Some lo, Some hi -> Some (lo, hi)
        | _ -> None)
    | _ -> None)

let crash_item j =
  match
    ( Option.bind (Json.member "pid" j) Json.to_int_opt,
      Option.bind (Json.member "time" j) Json.to_float_opt )
  with
  | Some pid, Some tm -> Some (pid, tm)
  | _ -> None

let spec_of_json j =
  Result.map_error (( ^ ) "Crash.spec_of_json: ")
    (match j with
    | Json.Obj _ -> (
        let* kind = Json.required "kind" ~what:"a string" Json.to_string_opt j in
        match kind with
        | "none" -> Ok No_crashes
        | "explicit" ->
            let* items =
              Json.required "crashes" ~what:"a list of {pid, time}" (Json.list_opt crash_item) j
            in
            Ok (Explicit items)
        | "initial" ->
            let* pids = Json.required "pids" ~what:"a list of ints" (Json.list_opt Json.to_int_opt) j in
            Ok (Initial pids)
        | "random_up_to" ->
            let* max_crashes = Json.required "max_crashes" ~what:"an int" Json.to_int_opt j in
            let* window = window j in
            Ok (Random_up_to { max_crashes; window })
        | "exactly" ->
            let* crashes = Json.required "crashes" ~what:"an int" Json.to_int_opt j in
            let* window = window j in
            Ok (Exactly { crashes; window })
        | k -> Error (Printf.sprintf "unknown kind %S" k))
    | _ -> Error "expected an object")

let pp fmt l =
  Format.fprintf fmt "[%s]"
    (String.concat "; "
       (List.map (fun (p, tm) -> Printf.sprintf "%s@%.2f" (Pid.to_string p) tm) l))
