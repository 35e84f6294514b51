(* Fixed-capacity overwrite-oldest ring buffer.  Not to be confused with
   [Ring], the combinatorial wheels ring: this one is a plain bounded
   history buffer (the runtime node's phi series). *)

type 'a t = {
  data : 'a option array;
  cap : int;
  mutable next : int; (* write index *)
  mutable len : int; (* live elements, <= cap *)
  mutable dropped : int; (* overwritten since creation *)
}

let create ~cap =
  if cap < 1 then invalid_arg "Ringbuf.create: cap must be >= 1";
  { data = Array.make cap None; cap; next = 0; len = 0; dropped = 0 }

let dropped t = t.dropped

let push t x =
  if t.len = t.cap then t.dropped <- t.dropped + 1;
  t.data.(t.next) <- Some x;
  t.next <- (t.next + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1

(* The oldest live element sits [len] slots behind the write index. *)
let to_list t =
  let oldest = t.next - t.len + t.cap in
  List.init t.len (fun i -> Option.get t.data.((oldest + i) mod t.cap))
