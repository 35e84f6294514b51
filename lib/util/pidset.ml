(* Multi-word bitset: little-endian array of word-sized chunks, kept
   canonical (no trailing zero words) so that structural equality and the
   polymorphic order remain meaningful.  The single-word fast paths keep
   the n <= 62 regime (every paper-scale run) allocation-light, while the
   general case lifts the old hard cap so campaign sweeps can exercise
   n = 64, 128, ... processes. *)

type t = int array

let word = Sys.int_size - 1 (* usable bits per chunk; avoids sign games *)
let max_size = 1024

let empty = [||]
let is_empty s = Array.length s = 0

(* Canonicalize in place conceptually: return the prefix without trailing
   zero words (shares the array when already canonical). *)
let trim s =
  let len = Array.length s in
  let rec top i = if i >= 0 && s.(i) = 0 then top (i - 1) else i in
  let t = top (len - 1) in
  if t = len - 1 then s else Array.sub s 0 (t + 1)

let full ~n =
  assert (n >= 0 && n <= max_size);
  if n = 0 then empty
  else begin
    let words = ((n - 1) / word) + 1 in
    let s = Array.make words 0 in
    for i = 0 to words - 2 do
      s.(i) <- (1 lsl word) - 1
    done;
    let rem = n - ((words - 1) * word) in
    s.(words - 1) <- (1 lsl rem) - 1;
    s
  end

let singleton p =
  let i = p / word in
  let s = Array.make (i + 1) 0 in
  s.(i) <- 1 lsl (p mod word);
  s

let mem p s =
  let i = p / word in
  i < Array.length s && s.(i) land (1 lsl (p mod word)) <> 0

let add p s =
  let i = p / word in
  let len = Array.length s in
  if i < len then begin
    let b = 1 lsl (p mod word) in
    if s.(i) land b <> 0 then s
    else begin
      let s' = Array.copy s in
      s'.(i) <- s'.(i) lor b;
      s'
    end
  end
  else begin
    let s' = Array.make (i + 1) 0 in
    Array.blit s 0 s' 0 len;
    s'.(i) <- 1 lsl (p mod word);
    s'
  end

let remove p s =
  let i = p / word in
  if i >= Array.length s then s
  else begin
    let b = 1 lsl (p mod word) in
    if s.(i) land b = 0 then s
    else begin
      let s' = Array.copy s in
      s'.(i) <- s'.(i) land lnot b;
      trim s'
    end
  end

(* 16-bit-chunk table popcount: constant work per word regardless of how
   many bits are set (the bit-clearing loop was O(members), which made
   [cardinal] on large quorum sets a hot-path cost). *)
let pop16 =
  let t = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v land (v - 1)) in
    Bytes.unsafe_set t i (Char.chr (go 0 i))
  done;
  t

let popcount x =
  let b i = Char.code (Bytes.unsafe_get pop16 ((x lsr i) land 0xffff)) in
  b 0 + b 16 + b 32 + b 48

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let long, short = if la >= lb then (a, b) else (b, a) in
    let s = Array.copy long in
    Array.iteri (fun i w -> s.(i) <- s.(i) lor w) short;
    s
  end

let inter a b =
  let l = min (Array.length a) (Array.length b) in
  if l = 0 then empty
  else trim (Array.init l (fun i -> a.(i) land b.(i)))

let diff a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then a
  else
    trim
      (Array.init la (fun i -> if i < lb then a.(i) land lnot b.(i) else a.(i)))

(* The word loops below are top-level functions of all their operands:
   a local [let rec go] would allocate a closure per call, and [subset]
   runs after every simulated event (Kset's stop condition). *)
let rec subset_from a b i la =
  i >= la || (a.(i) land lnot b.(i) = 0 && subset_from a b (i + 1) la)

let subset a b =
  let la = Array.length a in
  la <= Array.length b && subset_from a b 0 la

let rec disjoint_from a b i l = i >= l || (a.(i) land b.(i) = 0 && disjoint_from a b (i + 1) l)
let disjoint a b = disjoint_from a b 0 (min (Array.length a) (Array.length b))

let rec equal_below (a : t) b i = i < 0 || (a.(i) = b.(i) && equal_below a b (i - 1))

let equal (a : t) b =
  a == b || (Array.length a = Array.length b && equal_below a b (Array.length a - 1))
let compare (a : t) b = Stdlib.compare a b
let of_list l = List.fold_left (fun s p -> add p s) empty l

(* Index of the lowest set bit of a non-zero word. *)
let lowest_bit w =
  let low = w land -w in
  let rec tz i v = if v land 1 = 1 then i else tz (i + 1) (v lsr 1) in
  tz 0 low

(* Folds in ascending pid order. *)
let fold f s init =
  let acc = ref init in
  Array.iteri
    (fun i w0 ->
      let w = ref w0 in
      while !w <> 0 do
        acc := f ((i * word) + lowest_bit !w) !acc;
        w := !w land (!w - 1)
      done)
    s;
  !acc

let to_list s = List.rev (fold (fun p acc -> p :: acc) s [])
let iter f s = fold (fun p () -> f p) s ()
let for_all f s = fold (fun p acc -> acc && f p) s true
let exists f s = fold (fun p acc -> acc || f p) s false
let filter f s = fold (fun p acc -> if f p then add p acc else acc) s empty

let min_elt s =
  if is_empty s then raise Not_found
  else begin
    let rec go i = if s.(i) <> 0 then (i * word) + lowest_bit s.(i) else go (i + 1) in
    go 0
  end

let min_elt_opt s = if is_empty s then None else Some (min_elt s)
let max_elt_opt s = fold (fun p _ -> Some p) s None

let random rng ~n ~size =
  assert (size >= 0 && size <= n);
  (* Floyd's algorithm for a uniform size-subset of {0..n-1}. *)
  let s = ref empty in
  for j = n - size to n - 1 do
    let r = Rng.int rng (j + 1) in
    if mem r !s then s := add j !s else s := add r !s
  done;
  !s

(* Decimal digits of a pid's 1-based number (at most [max_size]). *)
let digits x = if x < 10 then 1 else if x < 100 then 2 else if x < 1000 then 3 else 4

(* ["{p1,p5}"] built in place: one pass sizes the string, a second fills
   it, and the only allocation is the string itself.  Every [Fd_change]
   trace entry pays this. *)
let to_string s =
  let len = ref 1 in
  for i = 0 to Array.length s - 1 do
    let w = ref s.(i) in
    while !w <> 0 do
      len := !len + 2 + digits ((i * word) + lowest_bit !w + 1);
      w := !w land (!w - 1)
    done
  done;
  let len = if !len = 1 then 2 else !len in
  let b = Bytes.make len ',' in
  Bytes.unsafe_set b 0 '{';
  Bytes.unsafe_set b (len - 1) '}';
  let pos = ref 1 in
  for i = 0 to Array.length s - 1 do
    let w = ref s.(i) in
    while !w <> 0 do
      let x = (i * word) + lowest_bit !w + 1 in
      let d = digits x in
      Bytes.unsafe_set b !pos 'p';
      let v = ref x in
      for k = d downto 1 do
        Bytes.unsafe_set b (!pos + k) (Char.unsafe_chr (48 + (!v mod 10)));
        v := !v / 10
      done;
      pos := !pos + d + 2;
      w := !w land (!w - 1)
    done
  done;
  Bytes.unsafe_to_string b

(* ---- Sets kept in place, in a caller's int array ---- *)

let words ~n = if n <= 0 then 0 else ((n - 1) / word) + 1

let add_in row off p =
  let i = off + (p / word) and b = 1 lsl (p mod word) in
  let w = row.(i) in
  if w land b <> 0 then false
  else begin
    row.(i) <- w lor b;
    true
  end

let of_words row off len =
  let top = ref (len - 1) in
  while !top >= 0 && row.(off + !top) = 0 do
    decr top
  done;
  if !top < 0 then empty else Array.sub row off (!top + 1)

let pp fmt s = Format.pp_print_string fmt (to_string s)

let hash (s : t) = Array.fold_left (fun h w -> (h * 1_000_003) lxor w) 0 s
