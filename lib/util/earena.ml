(* Flat int-indexed event arena: a timing wheel in front of a 4-ary
   min-heap, both over struct-of-arrays slots.  One slot holds
   (time, seq, kind, arg); entries are ordered by (time, seq), seq being a
   monotonic insertion counter so that ties at one instant preserve
   insertion order — the same contract the scheduler previously got from a
   [Pqueue.t] of closure records.

   The point of the layout is the steady state: [add] recycles slots off a
   free list threaded through [arg], [pop] releases the popped slot back,
   and all comparisons are inline int/float array reads — no per-event
   record, no closure, no comparator call.  A long-running simulation
   reaches a fixed arena size and then allocates nothing per event.

   Why a wheel: a simulation keeps tens of thousands of deliveries in
   flight, and a comparison-based heap pays log4 of that in cache-missing
   levels on every pop.  Near-future events — the overwhelming majority,
   message delays being small and bounded — instead hash into one of the
   wheel's time buckets of width [bw] (16 per expected entry, see
   [wheel_buckets]): a pop finds the first occupied bucket
   through a two-level bitmap and scans its short unsorted chain for the
   exact (time, seq) minimum.  Events beyond the wheel window, or behind
   the pop frontier, go to the heap; the true minimum is whichever of
   (first-bucket min, heap top) is smaller, so ordering stays exact, not
   approximate.  When in-flight counts outgrow the resolution (a scanned
   chain passes [chain_limit]) the wheel rebuilds with half the bucket
   width, so chains stay short at any scale.

   [hpos] maps a live slot to its place (heap index, or the wheel marker),
   giving true removal for [cancel] — the queue length stays exact. *)

type t = {
  mutable time : float array; (* per slot *)
  mutable seq : int array;
  mutable kind : int array;
  mutable arg : int array; (* free slots: next free slot id, or -1 *)
  mutable hpos : int array; (* slot -> heap index; in wheel = -2; free = -1 *)
  (* Overflow heap of slot ids, with (time, seq) mirrored at heap positions
     so sift comparisons read sequentially (a 4-child probe is one cache
     line of [h_time]) instead of chasing heap.(i) -> time.(slot) into a
     large scattered array. *)
  mutable heap : int array;
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable hsize : int; (* live heap entries *)
  (* Timing wheel. *)
  mutable bnext : int array; (* slot -> next slot in its bucket chain *)
  nb_mask : int; (* bucket count - 1; the count is a power of two *)
  buckets : int array; (* bucket -> chain head slot, -1 = empty *)
  bits : int array; (* bucket occupancy bitmap, 32 buckets per word *)
  summary : int array; (* word occupancy of [bits], 32 words per entry *)
  mutable bw_inv : float; (* 1 / bucket width *)
  mutable floor_ab : int; (* absolute bucket number of the pop frontier *)
  mutable last_pop : float; (* pop frontier time, for rebuilds *)
  mutable wcount : int; (* live wheel entries *)
  (* Cached minimum: peek and the following pop share one bucket scan, and
     adds maintain it incrementally instead of invalidating. *)
  mutable cm_valid : bool;
  mutable cm_slot : int;
  mutable cm_wheel : bool;
  mutable cm_prev : int; (* chain predecessor for O(1) unlink, -1 = head *)
  mutable cm_bucket : int;
  mutable free : int; (* free-list head, -1 = none *)
  mutable next_seq : int;
  (* Slot popped but not yet recycled: the free list is threaded through
     [arg], so releasing immediately would clobber the very field the
     caller is about to read.  [add]/[pop] flush it first. *)
  mutable pending : int;
}

let chain_limit = 24 (* rebuild with bw/2 when a scanned chain exceeds this *)
let max_bw_inv = 1e12 (* narrowing fuse: equal-time pileups can't split *)

(* Wheel size for [initial] expected entries: 16 buckets per entry, a
   power of two between 1024 (one summary word covers the bitmap) and
   16384.  A small simulation keeps its wheel, bitmaps and set-up cost
   small; the window still spans 4 time units, so the buckets are only
   wider, and [rebuild_narrower] halves them if chains grow. *)
let wheel_buckets initial =
  let rec up nb = if nb >= 16 * initial || nb >= 16384 then nb else up (2 * nb) in
  up 1024

let create ?(initial = 64) () =
  let cap = max 4 initial in
  let nb = wheel_buckets initial in
  {
    time = Array.make cap 0.0;
    seq = Array.make cap 0;
    kind = Array.make cap 0;
    arg = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
    hpos = Array.make cap (-1);
    heap = Array.make cap 0;
    h_time = Array.make cap 0.0;
    h_seq = Array.make cap 0;
    hsize = 0;
    bnext = Array.make cap (-1);
    nb_mask = nb - 1;
    buckets = Array.make nb (-1);
    bits = Array.make (nb / 32) 0;
    summary = Array.make (nb / 1024) 0;
    (* The window starts 4 time units wide, whatever [nb]. *)
    bw_inv = float_of_int nb /. 4.0;
    floor_ab = 0;
    last_pop = 0.0;
    wcount = 0;
    cm_valid = false;
    cm_slot = -1;
    cm_wheel = false;
    cm_prev = -1;
    cm_bucket = 0;
    free = 0;
    next_seq = 0;
    pending = -1;
  }

let length t = t.hsize + t.wcount
let is_empty t = t.hsize = 0 && t.wcount = 0

let grow t =
  let cap = Array.length t.time in
  let ncap = 2 * cap in
  let copy a fill =
    let a' = Array.make ncap fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.time <- copy t.time 0.0;
  t.seq <- copy t.seq 0;
  t.kind <- copy t.kind 0;
  t.arg <- copy t.arg 0;
  t.hpos <- copy t.hpos (-1);
  t.heap <- copy t.heap 0;
  t.h_time <- copy t.h_time 0.0;
  t.h_seq <- copy t.h_seq 0;
  t.bnext <- copy t.bnext (-1);
  (* Thread the new slots onto the free list. *)
  for i = cap to ncap - 1 do
    t.arg.(i) <- (if i + 1 < ncap then i + 1 else t.free)
  done;
  t.free <- cap

(* ---- Overflow heap ---- *)

(* Both sifts move a hole: the entry being placed rides in (immutable,
   unboxed) locals, displaced entries are copied once in the hole's
   direction, and the entry is written exactly once at its final position.
   (time, seq) order throughout: strictly earlier, or same instant and
   inserted first. *)
let sift_up t i0 =
  let slot = t.heap.(i0) in
  let tm = t.h_time.(i0) and sq = t.h_seq.(i0) in
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    if tm < t.h_time.(p) || (tm = t.h_time.(p) && sq < t.h_seq.(p)) then begin
      let sp = t.heap.(p) in
      t.heap.(!i) <- sp;
      t.h_time.(!i) <- t.h_time.(p);
      t.h_seq.(!i) <- t.h_seq.(p);
      t.hpos.(sp) <- !i;
      i := p
    end
    else continue := false
  done;
  if !i <> i0 then begin
    t.heap.(!i) <- slot;
    t.h_time.(!i) <- tm;
    t.h_seq.(!i) <- sq;
    t.hpos.(slot) <- !i
  end

let sift_down t i0 =
  let slot = t.heap.(i0) in
  let tm = t.h_time.(i0) and sq = t.h_seq.(i0) in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= t.hsize then continue := false
    else begin
      (* Smallest of up to four children: adjacent heap positions, so the
         probes stay within one or two cache lines of [h_time]. *)
      let best = ref first in
      let last = min (first + 3) (t.hsize - 1) in
      for c = first + 1 to last do
        if
          t.h_time.(c) < t.h_time.(!best)
          || (t.h_time.(c) = t.h_time.(!best) && t.h_seq.(c) < t.h_seq.(!best))
        then best := c
      done;
      let b = !best in
      if t.h_time.(b) < tm || (t.h_time.(b) = tm && t.h_seq.(b) < sq) then begin
        let sb = t.heap.(b) in
        t.heap.(!i) <- sb;
        t.h_time.(!i) <- t.h_time.(b);
        t.h_seq.(!i) <- t.h_seq.(b);
        t.hpos.(sb) <- !i;
        i := b
      end
      else continue := false
    end
  done;
  if !i <> i0 then begin
    t.heap.(!i) <- slot;
    t.h_time.(!i) <- tm;
    t.h_seq.(!i) <- sq;
    t.hpos.(slot) <- !i
  end

let heap_insert t slot ~time ~sq =
  let i = t.hsize in
  t.hsize <- i + 1;
  t.heap.(i) <- slot;
  t.h_time.(i) <- time;
  t.h_seq.(i) <- sq;
  t.hpos.(slot) <- i;
  sift_up t i

(* Remove the heap entry at index [i]; the slot stays live (caller decides
   whether to release it). *)
let heap_remove_at t i =
  let last = t.hsize - 1 in
  t.hsize <- last;
  if i < last then begin
    let moved = t.heap.(last) in
    t.heap.(i) <- moved;
    t.h_time.(i) <- t.h_time.(last);
    t.h_seq.(i) <- t.h_seq.(last);
    t.hpos.(moved) <- i;
    (* The filler can need either direction relative to position [i]. *)
    sift_up t i;
    sift_down t t.hpos.(moved)
  end

(* ---- Wheel ---- *)

let bit_set t b =
  let w = b lsr 5 in
  t.bits.(w) <- t.bits.(w) lor (1 lsl (b land 31));
  t.summary.(w lsr 5) <- t.summary.(w lsr 5) lor (1 lsl (w land 31))

let bit_clear t b =
  let w = b lsr 5 in
  let v = t.bits.(w) land lnot (1 lsl (b land 31)) in
  t.bits.(w) <- v;
  if v = 0 then
    t.summary.(w lsr 5) <- t.summary.(w lsr 5) land lnot (1 lsl (w land 31))

(* Index of the lowest set bit of a nonzero 32-bit word. *)
let lsb w =
  let w = w land -w in
  let r = ref 0 in
  if w land 0xFFFF0000 <> 0 then r := !r + 16;
  if w land 0xFF00FF00 <> 0 then r := !r + 8;
  if w land 0xF0F0F0F0 <> 0 then r := !r + 4;
  if w land 0xCCCCCCCC <> 0 then r := !r + 2;
  if w land 0xAAAAAAAA <> 0 then r := !r + 1;
  !r

(* First occupied bucket at or circularly after [from] (a bucket index, the
   frontier's); -1 when the wheel is empty.  Live wheel entries span less
   than a full rotation, so circular order from the frontier is ascending
   bucket-number order.  Scans bitmap words, skipping empty 32-word groups
   via the summary. *)
let next_occupied t from =
  if t.wcount = 0 then -1
  else begin
    let bits_len = Array.length t.bits in
    let fw = from lsr 5 in
    let first = t.bits.(fw) land lnot ((1 lsl (from land 31)) - 1) in
    if first <> 0 then (fw lsl 5) lor lsb first
    else begin
      let found = ref (-1) in
      let w = ref (fw + 1) in
      let steps = ref 0 in
      while !found < 0 && !steps < bits_len do
        let wi = !w land (bits_len - 1) in
        if wi land 31 = 0 && t.summary.(wi lsr 5) = 0 then begin
          w := !w + 32;
          steps := !steps + 32
        end
        else if t.bits.(wi) <> 0 then found := wi
        else begin
          incr w;
          incr steps
        end
      done;
      if !found < 0 then -1 else (!found lsl 5) lor lsb t.bits.(!found)
    end
  end

let wheel_insert t slot ~time ~ab =
  let b = ab land t.nb_mask in
  let head = t.buckets.(b) in
  t.bnext.(slot) <- head;
  t.buckets.(b) <- slot;
  if head = -1 then bit_set t b;
  t.hpos.(slot) <- -2;
  t.wcount <- t.wcount + 1;
  (* Keep the cached minimum exact: a strictly earlier entry replaces it
     (equal times lose — larger seq), and a head insert in the cached
     bucket becomes the cached head's new predecessor. *)
  if t.cm_valid then begin
    if time < t.time.(t.cm_slot) then begin
      t.cm_slot <- slot;
      t.cm_wheel <- true;
      t.cm_prev <- -1;
      t.cm_bucket <- b
    end
    else if t.cm_wheel && t.cm_bucket = b && t.cm_prev = -1 then
      t.cm_prev <- slot
  end

(* Unlink a wheel entry given its bucket and chain predecessor. *)
let wheel_unlink t slot ~bucket ~prev =
  (if prev = -1 then begin
     t.buckets.(bucket) <- t.bnext.(slot);
     if t.bnext.(slot) = -1 then bit_clear t bucket
   end
   else t.bnext.(prev) <- t.bnext.(slot));
  t.bnext.(slot) <- -1;
  t.wcount <- t.wcount - 1

(* Route a live slot into the wheel or the heap.  Wheel-eligible: a finite
   nonnegative time whose bucket number lands in the window
   [floor_ab, floor_ab + nb) (the float guard keeps the int conversion in
   range even after rebuild narrowing).  Entries behind the pop frontier
   or beyond the window take the heap. *)
let route t slot ~time ~sq =
  let abf = time *. t.bw_inv in
  let wheeled =
    time >= 0.0
    && abf < 4.0e18
    &&
    let ab = int_of_float abf in
    if ab >= t.floor_ab && ab - t.floor_ab <= t.nb_mask then begin
      wheel_insert t slot ~time ~ab;
      true
    end
    else if t.wcount = 0 && ab >= t.floor_ab then begin
      (* Empty wheel: re-base the window so a jump forward in time (or a
         freshly cleared arena) still gets bucketed. *)
      t.floor_ab <- ab;
      wheel_insert t slot ~time ~ab;
      true
    end
    else false
  in
  if not wheeled then begin
    heap_insert t slot ~time ~sq;
    if t.cm_valid && time < t.time.(t.cm_slot) then begin
      t.cm_slot <- slot;
      t.cm_wheel <- false
    end
  end

(* Halve the bucket width and re-route every wheel entry.  Triggered when a
   scanned chain exceeds [chain_limit]: the in-flight population outgrew
   the current resolution.  Geometric, so a run settles after a handful of
   rebuilds; entries now beyond the narrower window spill to the heap. *)
let rebuild_narrower t =
  t.bw_inv <- t.bw_inv *. 2.0;
  t.floor_ab <- int_of_float (t.last_pop *. t.bw_inv);
  t.cm_valid <- false;
  let stack = ref [] in
  for b = 0 to t.nb_mask do
    let s = ref t.buckets.(b) in
    while !s >= 0 do
      stack := !s :: !stack;
      s := t.bnext.(!s)
    done;
    t.buckets.(b) <- -1
  done;
  Array.fill t.bits 0 (Array.length t.bits) 0;
  Array.fill t.summary 0 (Array.length t.summary) 0;
  t.wcount <- 0;
  List.iter
    (fun slot ->
      t.bnext.(slot) <- -1;
      route t slot ~time:t.time.(slot) ~sq:t.seq.(slot))
    !stack

exception Narrowed

(* Establish the cached minimum: exact (time, seq) min of the first
   occupied bucket's chain (predecessor recorded for O(1) unlink) against
   the heap top.  Raises [Narrowed] after an in-place rebuild; the caller
   retries. *)
let find_min t =
  if not t.cm_valid then begin
    let wb = next_occupied t (t.floor_ab land t.nb_mask) in
    let wslot = ref (-1) and wprev = ref (-1) in
    (if wb >= 0 then begin
       let chain_len = ref 0 in
       let prev = ref (-1) in
       let s = ref t.buckets.(wb) in
       let best = ref (-1) and best_prev = ref (-1) in
       while !s >= 0 do
         incr chain_len;
         (if
            !best < 0
            || t.time.(!s) < t.time.(!best)
            || (t.time.(!s) = t.time.(!best) && t.seq.(!s) < t.seq.(!best))
          then begin
            best := !s;
            best_prev := !prev
          end);
         prev := !s;
         s := t.bnext.(!s)
       done;
       if !chain_len > chain_limit && t.bw_inv < max_bw_inv then begin
         rebuild_narrower t;
         raise Narrowed
       end;
       wslot := !best;
       wprev := !best_prev
     end);
    let ws = !wslot in
    let pick_wheel =
      ws >= 0
      && (t.hsize = 0
         || t.time.(ws) < t.h_time.(0)
         || (t.time.(ws) = t.h_time.(0) && t.seq.(ws) < t.h_seq.(0)))
    in
    if pick_wheel then begin
      t.cm_slot <- ws;
      t.cm_wheel <- true;
      t.cm_prev <- !wprev;
      t.cm_bucket <- wb
    end
    else begin
      t.cm_slot <- t.heap.(0);
      t.cm_wheel <- false
    end;
    t.cm_valid <- true
  end

let rec find_min_retry t =
  try find_min t with Narrowed -> find_min_retry t

let release t slot =
  t.hpos.(slot) <- -1;
  t.arg.(slot) <- t.free;
  t.free <- slot

let flush_pending t =
  if t.pending >= 0 then begin
    release t t.pending;
    t.pending <- -1
  end

let add t ~time ~kind ~arg =
  flush_pending t;
  if t.free = -1 then grow t;
  let slot = t.free in
  t.free <- t.arg.(slot);
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  t.time.(slot) <- time;
  t.seq.(slot) <- sq;
  t.kind.(slot) <- kind;
  t.arg.(slot) <- arg;
  route t slot ~time ~sq;
  slot

let time_of t slot = t.time.(slot)
let seq_of t slot = t.seq.(slot)
let kind_of t slot = t.kind.(slot)
let arg_of t slot = t.arg.(slot)
let mem t slot = slot >= 0 && slot < Array.length t.hpos && t.hpos.(slot) <> -1

let peek_time t =
  if is_empty t then infinity
  else begin
    find_min_retry t;
    t.time.(t.cm_slot)
  end

let pop t =
  flush_pending t;
  if is_empty t then -1
  else begin
    find_min_retry t;
    let slot = t.cm_slot in
    (if t.cm_wheel then begin
       wheel_unlink t slot ~bucket:t.cm_bucket ~prev:t.cm_prev;
       (* The popped entry held the minimal live bucket number, so the
          frontier advances to it; entries sharing the bucket keep
          [ab >= floor_ab]. *)
       t.floor_ab <- int_of_float (t.time.(slot) *. t.bw_inv)
     end
     else heap_remove_at t t.hpos.(slot));
    t.last_pop <- t.time.(slot);
    t.cm_valid <- false;
    (* Field reads stay valid until the next [add] or [pop]: recycling is
       deferred because the free list lives in [arg]. *)
    t.hpos.(slot) <- -1;
    t.pending <- slot;
    slot
  end

let cancel t slot =
  if not (mem t slot) then false
  else begin
    (if t.hpos.(slot) = -2 then begin
       (* Wheel entry: walk its chain for the predecessor, then unlink. *)
       let b = int_of_float (t.time.(slot) *. t.bw_inv) land t.nb_mask in
       let prev = ref (-1) in
       let s = ref t.buckets.(b) in
       while !s <> slot do
         prev := !s;
         s := t.bnext.(!s)
       done;
       wheel_unlink t slot ~bucket:b ~prev:!prev
     end
     else heap_remove_at t t.hpos.(slot));
    t.cm_valid <- false;
    release t slot;
    true
  end

let clear t =
  for i = 0 to t.hsize - 1 do
    release t t.heap.(i)
  done;
  t.hsize <- 0;
  for b = 0 to t.nb_mask do
    let s = ref t.buckets.(b) in
    while !s >= 0 do
      let nxt = t.bnext.(!s) in
      t.bnext.(!s) <- -1;
      release t !s;
      s := nxt
    done;
    t.buckets.(b) <- -1
  done;
  Array.fill t.bits 0 (Array.length t.bits) 0;
  Array.fill t.summary 0 (Array.length t.summary) 0;
  t.wcount <- 0;
  t.cm_valid <- false

let to_sorted_list t =
  let out = ref [] in
  for i = 0 to t.hsize - 1 do
    let s = t.heap.(i) in
    out := (t.time.(s), t.seq.(s), t.kind.(s), t.arg.(s)) :: !out
  done;
  for b = 0 to t.nb_mask do
    let s = ref t.buckets.(b) in
    while !s >= 0 do
      out := (t.time.(!s), t.seq.(!s), t.kind.(!s), t.arg.(!s)) :: !out;
      s := t.bnext.(!s)
    done
  done;
  List.sort
    (fun (ta, sa, _, _) (tb, sb, _, _) ->
      let c = Float.compare ta tb in
      if c <> 0 then c else Int.compare sa sb)
    !out

let capacity t = Array.length t.time
let buckets t = t.nb_mask + 1
