type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

let hash_string s =
  (* FNV-1a, 64-bit. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let split_named t name = { state = mix64 (Int64.logxor t.state (hash_string name)) }

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bernoulli t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let uniform_in t lo hi = lo +. float t (hi -. lo)

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
