(* The splitmix64 state lives in an 8-byte buffer read and written through
   the compiler's 64-bit load/store primitives, so a draw keeps it in a
   register: a [mutable int64] field would box a fresh Int64 on every
   draw.  The byte order is the host's, and nothing outside this module
   ever sees the bytes. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let copy t = Bytes.copy t

(* One step, inlined into every drawing function below so the int64
   never leaves a register. *)
let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let int64 t = next t
let split t = of_state (next t)

let hash_string s =
  (* FNV-1a, 64-bit. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let split_named t name = of_state (mix64 (Int64.logxor (get64 t 0) (hash_string name)))

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

(* Uniform in [0, 1): the top 53 bits of a draw. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let float t bound = unit_float t *. bound

let bernoulli t p = unit_float t < p

let exponential t ~mean =
  let u = unit_float t in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let uniform_in t lo hi = lo +. (unit_float t *. (hi -. lo))

let fill_uniform t row len lo hi =
  let width = hi -. lo in
  for i = 0 to len - 1 do
    row.(i) <- lo +. (unit_float t *. width)
  done

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
