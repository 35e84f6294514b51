(* Append-only JSONL journal with fsync'd writes and a
   corruption-tolerant loader — the write-ahead log under the campaign
   daemon's crash recovery (Core.Serve), generic enough for any
   "replay my state after a kill -9" consumer.

   Durability contract: [append] writes one complete minified line
   (value + '\n') with a single [Unix.write] and then fsyncs, so after a
   crash the file is always a sequence of complete lines followed by at
   most one partial line (the append that was in flight).  [load] drops
   that partial tail (and any mid-file garbage line) without failing:
   recovery always sees a prefix-consistent subset of what was
   appended. *)

type t = {
  path : string;
  fd : Unix.file_descr;
  fsync : bool;
}

let meta_entry () = Json.Obj (("type", Json.String "meta") :: Stamp.fields ())

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

let line j = Json.to_string ~minify:true j ^ "\n"

let append t j =
  write_all t.fd (line j);
  if t.fsync then Unix.fsync t.fd

let append_open ?(fsync = true) path =
  Files.mkdir_p (Filename.dirname path);
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  let t = { path; fd; fsync } in
  (* A fresh (empty) journal opens with a schema-stamped meta line so
     replaying code can detect foreign builds. *)
  if Unix.lseek fd 0 Unix.SEEK_END = 0 then append t (meta_entry ());
  t

let path t = t.path
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type loaded = {
  entries : Json.t list;
  dropped_lines : int;
  dropped_bytes : int;
}

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> { entries = []; dropped_lines = 0; dropped_bytes = 0 }
  | contents ->
      let n = String.length contents in
      let entries = ref [] and dropped_lines = ref 0 in
      let rec go start =
        if start >= n then 0
        else
          match String.index_from_opt contents start '\n' with
          | None -> n - start (* partial tail: the append a crash cut short *)
          | Some nl ->
              let l = String.sub contents start (nl - start) in
              (if String.trim l <> "" then
                 match Json.of_string l with
                 | Ok j -> entries := j :: !entries
                 | Error _ -> incr dropped_lines);
              go (nl + 1)
      in
      let dropped_bytes = go 0 in
      { entries = List.rev !entries; dropped_lines = !dropped_lines; dropped_bytes }

let rewrite path entries =
  Files.mkdir_p (Filename.dirname path);
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd (String.concat "" (List.map line (meta_entry () :: entries)));
  Unix.fsync fd;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Sys.rename tmp path
