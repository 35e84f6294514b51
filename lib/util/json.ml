type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest decimal representation that round-trips, always containing
   a '.' or exponent so the value reads back as a float. *)
let float_repr f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else
    let shortest =
      let s15 = Printf.sprintf "%.15g" f in
      if float_of_string s15 = f then s15
      else
        let s16 = Printf.sprintf "%.16g" f in
        if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') shortest then shortest
    else shortest ^ ".0"

let add buf ~minify v =
  let nl indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            go (indent + 2) item)
          items;
        nl indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf (if minify then "\":" else "\": ");
            go (indent + 2) item)
          fields;
        nl indent;
        Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?(minify = false) v =
  let buf = Buffer.create 256 in
  add buf ~minify v;
  Buffer.contents buf

let to_channel ?(minify = false) oc v =
  let buf = Buffer.create 256 in
  add buf ~minify v;
  Buffer.output_buffer oc buf

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel oc v;
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type error = { offset : int; message : string; incomplete : bool }

let error_to_string e =
  Printf.sprintf "%s at offset %d%s" e.message e.offset
    (if e.incomplete then " (incomplete input)" else "")

exception Err of error

(* Parse one JSON value starting at [pos]; returns the value and the
   offset one past it.  Failures caused by running out of bytes (rather
   than by malformed bytes) are flagged [incomplete] so a streaming
   caller can distinguish "feed me more" from a hard error. *)
let parse_prefix ?(pos = 0) s =
  let len = String.length s in
  let pos = ref pos in
  let fail ?(incomplete = false) msg =
    raise (Err { offset = !pos; message = msg; incomplete })
  in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some _ -> fail (Printf.sprintf "expected %C" c)
    | None -> fail ~incomplete:true (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let wlen = String.length word in
    if !pos + wlen <= len && String.sub s !pos wlen = word then begin
      pos := !pos + wlen;
      v
    end
    else if
      (* The bytes present agree with the literal but the buffer ends
         before it does: incomplete, not malformed. *)
      !pos + wlen > len
      && String.sub s !pos (len - !pos) = String.sub word 0 (len - !pos)
    then fail ~incomplete:true (Printf.sprintf "expected %s" word)
    else fail (Printf.sprintf "expected %s" word)
  in
  (* Encode a decoded \uXXXX codepoint as UTF-8 bytes. *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail ~incomplete:true "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail ~incomplete:true "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let cp =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              add_utf8 buf cp;
              loop ()
          | None -> fail ~incomplete:true "bad escape"
          | _ -> fail "bad escape")
      | Some c -> Buffer.add_char buf c; advance (); loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Integer overflow: fall back to float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail ~incomplete:true "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields (kv :: acc)
            | Some '}' -> advance (); Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match parse_value () with
  | v -> Ok (v, !pos)
  | exception Err e -> Error e

let ws_only s ~from ~until =
  let ok = ref true in
  for i = from to until - 1 do
    match s.[i] with ' ' | '\t' | '\n' | '\r' -> () | _ -> ok := false
  done;
  !ok

let of_string s =
  match parse_prefix s with
  | Error e -> Error (error_to_string e)
  | Ok (v, stop) ->
      (* A bare number at the very end of a complete document is a
         complete number; only a streaming caller must treat it as
         possibly-unfinished (the NDJSON decoder frames on newlines, so
         it never faces the ambiguity). *)
      let len = String.length s in
      let rec skip i =
        if i < len && (match s.[i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
        then skip (i + 1)
        else i
      in
      let stop = skip stop in
      if stop <> len then
        Error
          (error_to_string
             { offset = stop; message = "trailing garbage"; incomplete = false })
      else Ok v

let of_string_exn s =
  match of_string s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Json.of_string_exn: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Incremental NDJSON decoding                                         *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  (* Every byte is copied into [buf] once, scanned for a newline once
     ([scan] remembers where the last search stopped), and moved at
     most once more by a compaction, which only happens once at least
     as many bytes were consumed as are still live.  So decoding is
     linear in the bytes fed, however the stream is chunked. *)
  type decoder = {
    mutable buf : Bytes.t;
    mutable start : int;  (** first unconsumed byte of [buf] *)
    mutable scan : int;  (** [buf.[start .. scan-1]] holds no newline *)
    mutable len : int;  (** bytes of [buf] in use *)
    mutable consumed : int;  (** absolute offset of [buf.[start]] *)
  }

  let decoder () =
    { buf = Bytes.create 4096; start = 0; scan = 0; len = 0; consumed = 0 }

  let feed d chunk =
    let n = String.length chunk in
    if d.len + n > Bytes.length d.buf then begin
      let live = d.len - d.start in
      let buf =
        if live + n <= Bytes.length d.buf && d.start >= live then d.buf
        else Bytes.create (max (2 * Bytes.length d.buf) (live + n))
      in
      Bytes.blit d.buf d.start buf 0 live;
      d.buf <- buf;
      d.scan <- d.scan - d.start;
      d.start <- 0;
      d.len <- live
    end;
    Bytes.blit_string chunk 0 d.buf d.len n;
    d.len <- d.len + n

  let consumed d = d.consumed
  let pending d = d.len - d.start

  let take_line d =
    let rec find i = if i >= d.len || Bytes.get d.buf i = '\n' then i else find (i + 1) in
    let nl = find d.scan in
    if nl >= d.len then begin
      d.scan <- d.len;
      None
    end
    else begin
      let line = Bytes.sub_string d.buf d.start (nl - d.start) in
      let line_off = d.consumed in
      d.consumed <- d.consumed + (nl - d.start) + 1;
      d.start <- nl + 1;
      d.scan <- nl + 1;
      if d.start = d.len then begin
        (* Drained: restart at the front, and let one huge frame's
           buffer go. *)
        if Bytes.length d.buf > 65536 then d.buf <- Bytes.create 4096;
        d.start <- 0;
        d.scan <- 0;
        d.len <- 0
      end;
      Some (line, line_off)
    end

  let rec next d =
    match take_line d with
    | None -> `Await
    | Some (line, line_off) ->
        if ws_only line ~from:0 ~until:(String.length line) then next d
        else begin
          match parse_prefix line with
          | Error e -> `Error { e with offset = line_off + e.offset }
          | Ok (v, stop) ->
              if ws_only line ~from:stop ~until:(String.length line) then `Value v
              else
                `Error
                  {
                    offset = line_off + stop;
                    message = "trailing garbage on frame";
                    incomplete = false;
                  }
        end
end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let list_opt conv = function
  | List l ->
      let xs = List.filter_map conv l in
      if List.compare_lengths xs l = 0 then Some xs else None
  | _ -> None

let required name ~what conv j =
  match member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%S must be %s" name what))

let field name ~what conv ~default j =
  match member name j with None -> Ok default | Some _ -> required name ~what conv j

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | _ -> false
