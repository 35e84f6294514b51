(** Minimal dependency-free JSON, for the benchmark/campaign artifacts
    ([_results/BENCH_<exp>.json], [_results/failures.json]).

    The writer emits strict RFC-8259 JSON: strings are escaped, floats
    are printed in shortest round-trip form (never ["3."], which OCaml's
    [Float.to_string] would produce), and non-finite floats become
    [null] (JSON has no representation for them).  The reader is a small
    recursive-descent parser — enough to read our own artifacts back
    (trend comparison, tests), not a general validator. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Writing} *)

val to_string : ?minify:bool -> t -> string
(** Render; 2-space indentation unless [minify] (default [false]). *)

val to_channel : ?minify:bool -> out_channel -> t -> unit

val write_file : string -> t -> unit
(** Write the value (pretty, with a trailing newline) to the given
    path, truncating any existing file. *)

val escape : string -> string
(** The writer's string escaping, without the surrounding quotes
    (exposed for tests). *)

(** {1 Reading} *)

type error = {
  offset : int;  (** byte offset of the failure (absolute for {!Stream}) *)
  message : string;
  incomplete : bool;
      (** [true] when the failure is "ran out of bytes mid-value" rather
          than malformed input — a streaming caller should feed more *)
}

val error_to_string : error -> string

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error msg] carries an offset. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse errors. *)

val parse_prefix : ?pos:int -> string -> (t * int, error) result
(** Parse one JSON value starting at [pos] (default 0); on success
    returns the value and the offset one past it — trailing bytes are
    left for the caller.  Errors caused by the buffer ending mid-value
    are flagged [incomplete].  A number that runs to the end of the
    buffer is returned as complete (only a framing layer can know
    whether more digits follow; see {!Stream}). *)

(** Incremental newline-delimited JSON (the [fdkit serve] socket
    protocol): feed arbitrary chunks, pop one value per complete
    non-blank line.  Partial frames are held until their newline
    arrives; parse errors carry absolute byte offsets into the overall
    stream. *)
module Stream : sig
  type decoder

  val decoder : unit -> decoder

  val feed : decoder -> string -> unit
  (** Append a chunk (any framing: split, coalesced, byte-at-a-time).
      Feeding and decoding cost time linear in the bytes fed, however
      they are chunked. *)

  val next : decoder -> [ `Value of t | `Await | `Error of error ]
  (** Pop the next complete frame. [`Await] = no complete line buffered.
      After [`Error] the bad frame has been consumed; decoding can
      continue with the next line. *)

  val consumed : decoder -> int
  (** Absolute byte offset of the decode cursor. *)

  val pending : decoder -> int
  (** Bytes buffered but not yet consumed (a partial frame). *)
end

(** {1 Accessors (for reading artifacts back)} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val equal : t -> t -> bool
(** Structural equality, with [Int i] and [Float f] distinct. *)
