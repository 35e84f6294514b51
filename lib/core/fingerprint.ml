(* Code fingerprints for artifact stamping and cache keys.

   Two granularities:

   - [whole ()]  — one digest over every library source file; installed
     into Util.Stamp at startup so all artifacts record which build of
     the code produced them.

   - [protocol p] — digest over the shared substrate (sim, net, fd,
     runner, checker, fault machinery) plus the source files specific
     to protocol [p].  The result cache keys on this, so editing
     kset.ml invalidates kset entries but leaves wheels/consensus_s
     entries warm, while editing sim.ml invalidates everything.

   Source files are found by walking up from the executable (and then
   the cwd) to the nearest dune-project.  Under dune this lands in
   _build/default, where sources are copied, so fingerprints work from
   installed test/bench binaries too.  If no source tree is found we
   fall back to digesting the executable itself — coarser (every
   rebuild invalidates) but never wrong. *)

let dune_project = "dune-project"

let find_root_from start =
  let rec up dir n =
    if n > 12 then None
    else if Sys.file_exists (Filename.concat dir dune_project) then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up start 0

let root_cache = ref None

let root () =
  match !root_cache with
  | Some r -> r
  | None ->
      let exe_dir =
        try Filename.dirname (Unix.realpath Sys.executable_name)
        with Unix.Unix_error _ | Sys_error _ ->
          Filename.dirname Sys.executable_name
      in
      let r =
        match find_root_from exe_dir with
        | Some _ as r -> r
        | None -> find_root_from (Sys.getcwd ())
      in
      root_cache := Some r;
      r

(* Protocol-specific sources, relative to the repo root: each registered
   protocol lists every one its [install] reaches.  Everything else under
   lib/ (except lib/rt, whose wall-clock backend is never cached) is
   shared substrate. *)
let wheels_files =
  [ "lib/core/wheels.ml"; "lib/core/wheels_upper.ml"; "lib/core/wheels_lower.ml" ]

let protocol_files =
  [
    ("kset", [ "lib/core/kset.ml" ]);
    ("consensus_s", [ "lib/core/consensus_s.ml" ]);
    ("wheels", wheels_files);
    ("psi", [ "lib/core/psi_to_omega.ml" ]);
    ( "reduce",
      [ "lib/core/reduce.ml"; "lib/core/kset.ml"; "lib/core/psi_to_omega.ml" ] @ wheels_files );
    ("strengthen", [ "lib/core/strengthen.ml" ]);
    ("impl", [ "lib/core/kset.ml" ]);
  ]

let all_protocol_files = List.concat_map snd protocol_files

let is_source f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let rec walk root rel acc =
  let dir = if rel = "" then root else Filename.concat root rel in
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc name ->
          let rel' = if rel = "" then name else Filename.concat rel name in
          let path = Filename.concat root rel' in
          if Sys.is_directory path then
            if rel = "" && name = "rt" then acc else walk root rel' acc
          else if is_source name then rel' :: acc
          else acc)
        acc entries

let lib_sources root =
  walk (Filename.concat root "lib") "" [] |> List.map (fun rel -> "lib/" ^ rel)
  |> List.sort String.compare

let digest_files root rels =
  let parts =
    List.filter_map
      (fun rel ->
        let path = Filename.concat root rel in
        match Digest.file path with
        | d -> Some (rel ^ "=" ^ Digest.to_hex d)
        | exception Sys_error _ -> None)
      rels
  in
  Digest.to_hex (Digest.string (String.concat "\n" parts))

let fallback () =
  match Digest.file Sys.executable_name with
  | d -> "exe:" ^ Digest.to_hex d
  | exception Sys_error _ -> "unstamped"

let memo : (string, string) Hashtbl.t = Hashtbl.create 8

let memoized name compute =
  match Hashtbl.find_opt memo name with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.add memo name v;
      v

let whole () =
  memoized "//whole" (fun () ->
      match root () with
      | None -> fallback ()
      | Some root -> digest_files root (lib_sources root))

let shared_sources root =
  List.filter (fun rel -> not (List.mem rel all_protocol_files)) (lib_sources root)

let protocol name =
  memoized name (fun () ->
      match root () with
      | None -> fallback ()
      | Some root ->
          let own =
            match List.assoc_opt name protocol_files with
            | Some files -> files
            | None -> []
          in
          digest_files root (shared_sources root @ own))

let install () = Setagree_util.Stamp.set_fingerprint (whole ())
