open Setagree_util
open Setagree_dsys

type 'm envelope = { src : Pid.t; dst : Pid.t; payload : 'm }

type 'm t = {
  sim : Sim.t;
  tag : string;
  delay : Delay.t;
  rng : Rng.t;
  (* Fault decisions draw from their own named stream so that attaching a
     [Faults] spec (or not) never perturbs the delay draws of the run. *)
  frng : Rng.t;
  retain : bool;
  classify : ('m -> int) option;
  (* When present, sends travel through the stubborn transport over a
     fair-lossy link instead of the direct channel. *)
  transport : 'm Lossy.Transport.t option;
  (* Mailboxes are append-only logs in delivery order, made and kept only
     with [retain]. *)
  boxes : 'm envelope Vec.t array;
  (* Keyed index.  Each live (destination, key) owns a slot: [wpn]
     sender words in [k_words], updated in place, its distinct-sender
     count, and its deliveries as parallel rows of sources and untyped
     payloads, in delivery order.  A delivery writes into its slot and
     allocates nothing once the slot's rows have room; [keyed_drop]
     hands the slot back through the free list, rows and all, so the
     next round reuses them.  [kmap] finds a slot: protocol keys are
     small dense ints (round/phase coordinates), so it is an array per
     destination indexed by key; the rare out-of-range key (negative,
     or past [kdense_max]) goes to a per-destination table made at its
     first use. *)
  kmap : int array array; (* per dst: slot, [k_none] or [k_retired] *)
  kovf : (int, int) Hashtbl.t option array;
  wpn : int; (* [Pidset.words ~n] *)
  mutable k_words : int array;
  mutable k_count : int array;
  (* Deliveries of a live slot; the next free slot of a free one. *)
  mutable k_len : int array;
  mutable k_src : int array array;
  (* Untyped like [r_pay], and for the same reason. *)
  mutable k_pay : Obj.t array array;
  mutable k_free : int; (* free-slot list head, -1 = none *)
  mutable k_slots : int; (* slots ever handed out *)
  conds : Sim.cond array;
  (* Quorum watches: one per destination, registered by [quorum_cond].
     The indexer signals the watch only when the watched key's distinct-
     sender count crosses the registered threshold, so a quorum wait costs
     one int compare per delivery instead of a predicate re-evaluation —
     deliveries that cannot satisfy the wait never wake it.  [min_int]
     means "no watch". *)
  watch_key : int array;
  watch_q : int array;
  watch_conds : Sim.cond array;
  mutable handlers : ('m envelope -> unit) list; (* registration order *)
  mutable sent : int;
  mutable delivered : int;
  (* Pre-resolved trace counters (one hash at create, O(1) per message). *)
  h_sent : Trace.counter;
  h_delivered : Trace.counter;
  h_deferred : Trace.counter;
  (* Flat in-flight store: one row per scheduled message, chained into
     per-(dst, time) batches so all envelopes reaching one mailbox at one
     instant cost a single queue event.  [r_next] doubles as the batch
     chain (live rows) and the free list (free rows).  A controlled send
     parks its row, unchained, in the simulator's pending pool. *)
  mutable disp : int; (* our dispatcher id in the simulator *)
  mutable r_src : int array;
  mutable r_dst : int array;
  (* Payloads stored untyped, [Obj.repr 0] in a free row: a typed
     [option] row would box every send.  The array is made from an int,
     so it is never a flat float array whatever ['m] is. *)
  mutable r_pay : Obj.t array;
  mutable r_next : int array;
  mutable r_free : int; (* free-list head, -1 = none *)
  (* The open (= still-queued, still-appendable) batch per destination:
     head/tail row of the chain and the batch's delivery time.  Cleared by
     the dispatcher when the tracked batch fires. *)
  open_head : int array;
  open_tail : int array;
  open_time : float array;
  (* One broadcast's delay draws, by destination. *)
  delays : float array;
}

let kdense_max = 1 lsl 16
let k_none = -1
let k_retired = -2

(* The key-indexed row of [dst], grown to hold [key] < [kdense_max]. *)
let dense_row t dst key =
  let row = t.kmap.(dst) in
  let len = Array.length row in
  if key < len then row
  else begin
    let nlen = ref (max 16 (2 * len)) in
    while key >= !nlen do
      nlen := 2 * !nlen
    done;
    let row' = Array.make !nlen k_none in
    Array.blit row 0 row' 0 len;
    t.kmap.(dst) <- row';
    row'
  end

let ovf t dst =
  match t.kovf.(dst) with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      t.kovf.(dst) <- Some tbl;
      tbl

(* A cleared slot: off the free list, or a new one.  A new slot's rows
   hold [n] deliveries, one per sender; duplicates grow them. *)
let slot_take t =
  if t.k_free >= 0 then begin
    let s = t.k_free in
    t.k_free <- t.k_len.(s);
    t.k_len.(s) <- 0;
    s
  end
  else begin
    let s = t.k_slots in
    let cap = Array.length t.k_count in
    if s = cap then begin
      let ncap = max 16 (2 * cap) in
      let grow a fill =
        let a' = Array.make ncap fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      let words = Array.make (ncap * t.wpn) 0 in
      Array.blit t.k_words 0 words 0 (cap * t.wpn);
      t.k_words <- words;
      t.k_count <- grow t.k_count 0;
      t.k_len <- grow t.k_len 0;
      t.k_src <- grow t.k_src [||];
      t.k_pay <- grow t.k_pay [||]
    end;
    let n = Sim.n t.sim in
    t.k_src.(s) <- Array.make n 0;
    t.k_pay.(s) <- Array.make n (Obj.repr 0);
    t.k_slots <- s + 1;
    s
  end

let slot_release t s =
  Array.fill t.k_words (s * t.wpn) t.wpn 0;
  Array.fill t.k_pay.(s) 0 t.k_len.(s) (Obj.repr 0);
  t.k_count.(s) <- 0;
  t.k_len.(s) <- t.k_free;
  t.k_free <- s

(* The slot of [key] at [dst], taken at its first delivery; [k_retired]
   for a dropped key. *)
let slot_get t dst key =
  if key >= 0 && key < kdense_max then begin
    let row = dense_row t dst key in
    let s = row.(key) in
    if s <> k_none then s
    else begin
      let s = slot_take t in
      row.(key) <- s;
      s
    end
  end
  else begin
    let tbl = ovf t dst in
    match Hashtbl.find tbl key with
    | s -> s
    | exception Not_found ->
        let s = slot_take t in
        Hashtbl.add tbl key s;
        s
  end

(* The slot of [key] at [pid], or a negative marker. *)
let slot_find t pid key =
  if key >= 0 && key < kdense_max then begin
    let row = t.kmap.(pid) in
    if key < Array.length row then row.(key) else k_none
  end
  else
    match t.kovf.(pid) with
    | None -> k_none
    | Some tbl -> Option.value (Hashtbl.find_opt tbl key) ~default:k_none

let index t ~dst ~src payload key =
  let s = slot_get t dst key in
  if s >= 0 then begin
    if Pidset.add_in t.k_words (s * t.wpn) src then begin
      let c = t.k_count.(s) + 1 in
      t.k_count.(s) <- c;
      (* Counts only increment by one, so [=] fires exactly at the
         crossing (a watch registered at-or-above its threshold is
         resolved by the await's immediate first evaluation instead). *)
      if t.watch_key.(dst) = key && c = t.watch_q.(dst) then
        Sim.Cond.signal t.watch_conds.(dst)
    end;
    let len = t.k_len.(s) in
    if len = Array.length t.k_src.(s) then begin
      let grow a fill =
        let a' = Array.make (2 * len) fill in
        Array.blit a 0 a' 0 len;
        a'
      in
      t.k_src.(s) <- grow t.k_src.(s) 0;
      t.k_pay.(s) <- grow t.k_pay.(s) (Obj.repr 0)
    end;
    t.k_src.(s).(len) <- src;
    t.k_pay.(s).(len) <- Obj.repr payload;
    t.k_len.(s) <- len + 1
  end

let rec deliver t ~src ~dst payload () =
  if not (Sim.is_crashed t.sim dst) then begin
    match Sim.stall_end t.sim dst with
    | Some resume_at ->
        (* A stalled process is frozen: the channel holds the message and
           re-presents it when the stall window closes. *)
        Trace.bump t.h_deferred 1;
        Sim.at t.sim ~time:resume_at (deliver t ~src ~dst payload)
    | None -> deliver_now t ~src ~dst payload
  end

and deliver_now t ~src ~dst payload =
  (match t.classify with Some f -> index t ~dst ~src payload (f payload) | None -> ());
  t.delivered <- t.delivered + 1;
  Trace.bump t.h_delivered 1;
  let tr = Sim.trace t.sim in
  if Trace.records_full tr then
    Trace.record tr ~time:(Sim.now t.sim) (Trace.Deliver { src; dst; tag = t.tag });
  (* The envelope exists only for the mailbox and the handlers. *)
  (match t.handlers with
  | [] -> if t.retain then Vec.push t.boxes.(dst) { src; dst; payload }
  | hs -> (
      let env = { src; dst; payload } in
      if t.retain then Vec.push t.boxes.(dst) env;
      match hs with [ h ] -> h env | hs -> List.iter (fun h -> h env) hs));
  Sim.Cond.signal t.conds.(dst)

(* ---- Flat rows and batched dispatch ---- *)

let row_grow t ncap =
  let cap = Array.length t.r_src in
  let copy a fill =
    let a' = Array.make ncap fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.r_src <- copy t.r_src 0;
  t.r_dst <- copy t.r_dst 0;
  t.r_pay <- copy t.r_pay (Obj.repr 0);
  t.r_next <- copy t.r_next (-1);
  for i = cap to ncap - 1 do
    t.r_next.(i) <- (if i + 1 < ncap then i + 1 else t.r_free)
  done;
  t.r_free <- cap

let row_alloc t ~src ~dst payload =
  if t.r_free = -1 then row_grow t (2 * Array.length t.r_src);
  let r = t.r_free in
  t.r_free <- t.r_next.(r);
  t.r_src.(r) <- src;
  t.r_dst.(r) <- dst;
  t.r_pay.(r) <- Obj.repr payload;
  t.r_next.(r) <- -1;
  r

let row_free t r =
  t.r_pay.(r) <- Obj.repr 0;
  t.r_next.(r) <- t.r_free;
  t.r_free <- r

(* Fire one batch: deliver the chained rows in append (= send) order.
   Each row still gets the per-message crash/stall treatment — a stalled
   destination's messages are re-presented individually at the stall
   end. *)
let dispatch t head =
  let dst = t.r_dst.(head) in
  if t.open_head.(dst) = head then begin
    t.open_head.(dst) <- -1;
    t.open_tail.(dst) <- -1;
    t.open_time.(dst) <- neg_infinity
  end;
  let row = ref head in
  while !row >= 0 do
    let r = !row in
    let src = t.r_src.(r) in
    let payload : 'm = Obj.obj t.r_pay.(r) in
    row := t.r_next.(r);
    (* Free before delivering: handlers may send, reusing this row; all
       fields are already read out. *)
    row_free t r;
    deliver t ~src ~dst payload ()
  done

(* Schedule a message for delivery at an absolute time: append to the
   destination's open batch when one is queued for exactly this instant,
   else open a new batch (one event, one future mailbox drain for the
   whole batch). *)
let[@inline] schedule_delivery t ~src ~dst ~deliver_at payload =
  let r = row_alloc t ~src ~dst payload in
  if t.open_head.(dst) >= 0 && t.open_time.(dst) = deliver_at then begin
    t.r_next.(t.open_tail.(dst)) <- r;
    t.open_tail.(dst) <- r
  end
  else begin
    Sim.schedule_dispatch t.sim ~time:deliver_at ~disp:t.disp ~row:r;
    t.open_head.(dst) <- r;
    t.open_tail.(dst) <- r;
    t.open_time.(dst) <- deliver_at
  end

(* Real-runtime ingress: a message that already traveled the wire is
   handed to the local simulator as an immediate delivery event, so all
   mailbox/index/condition updates happen inside the event loop (the next
   [Sim.advance] tick), exactly like a locally sent message would. *)
let inject t ~src payload =
  match Sim.local t.sim with
  | None -> invalid_arg "Net.inject: simulator is not in real-runtime mode"
  | Some dst -> Sim.schedule t.sim ~delay:0.0 (deliver t ~src ~dst payload)

let create sim ?(tag = "net") ?(delay = Delay.default) ?(retain = false) ?classify
    ?loss () =
  let transport =
    Option.map (fun loss -> Lossy.Transport.create sim ~tag:(tag ^ ".l") ~delay ~loss ()) loss
  in
  let n = Sim.n sim in
  let tr = Sim.trace sim in
  let t =
    {
      sim;
      tag;
      delay;
      rng = Rng.split_named (Sim.rng sim) ("net:" ^ tag);
      frng = Rng.split_named (Sim.rng sim) ("fault:" ^ tag);
      retain;
      classify;
      transport;
      boxes = (if retain then Array.init n (fun _ -> Vec.create ()) else [||]);
      kmap = Array.make n [||];
      kovf = Array.make n None;
      wpn = Pidset.words ~n;
      k_words = [||];
      k_count = [||];
      k_len = [||];
      k_src = [||];
      k_pay = [||];
      k_free = -1;
      k_slots = 0;
      conds = Array.init n (fun _ -> Sim.Cond.create sim);
      watch_key = Array.make n min_int;
      watch_q = Array.make n 0;
      watch_conds = Array.init n (fun _ -> Sim.Cond.create sim);
      handlers = [];
      sent = 0;
      delivered = 0;
      h_sent = Trace.counter_handle tr (tag ^ ".sent");
      h_delivered = Trace.counter_handle tr (tag ^ ".delivered");
      h_deferred = Trace.counter_handle tr "fault.deferred";
      disp = -1;
      r_src = [||];
      r_dst = [||];
      r_pay = [||];
      r_next = [||];
      r_free = -1;
      open_head = Array.make n (-1);
      open_tail = Array.make n (-1);
      open_time = Array.make n neg_infinity;
      delays = Array.make n 0.0;
    }
  in
  row_grow t (Sim.traffic_capacity sim);
  t.disp <- Sim.register_dispatcher sim (fun head -> dispatch t head);
  Option.iter
    (fun tr ->
      Lossy.Transport.on_deliver tr (fun ~src ~dst payload ->
          deliver t ~src ~dst payload ()))
    transport;
  (* Real-runtime mode: the tag names this network's decoder in the node's
     inbound dispatch. *)
  (match Sim.local sim with
  | Some _ ->
      Sim.register_inlet sim ~tag (fun ~src ~bytes ->
          let payload : 'm = Marshal.from_bytes bytes 0 in
          inject t ~src payload)
  | None -> ());
  t

let sim t = t.sim
let cond t pid = t.conds.(pid)

let quorum_cond t pid ~key ~q =
  t.watch_key.(pid) <- key;
  t.watch_q.(pid) <- q;
  t.watch_conds.(pid)

let full t = Trace.records_full (Sim.trace t.sim)

(* Count a send, and record it when the trace level is [full] (a
   broadcast reads the level once for all its copies). *)
let note_sent t ~full ~src ~dst =
  t.sent <- t.sent + 1;
  Trace.bump t.h_sent 1;
  if full then
    Trace.record (Sim.trace t.sim) ~time:(Sim.now t.sim)
      (Trace.Send { src; dst; tag = t.tag })

(* One timed send, the body [send] and [broadcast] share once the sender,
   routing, chooser and faults are checked.  A delay is never negative,
   so [deliver_at] is never in the past. *)
let[@inline] send_timed t ~full ~src ~dst ~deliver_at payload =
  note_sent t ~full ~src ~dst;
  schedule_delivery t ~src ~dst ~deliver_at payload

let send_at t ~src ~dst ~deliver_at payload =
  if not (Sim.is_crashed t.sim src) then begin
    note_sent t ~full:(full t) ~src ~dst;
    schedule_delivery t ~src ~dst
      ~deliver_at:(Float.max deliver_at (Sim.now t.sim))
      payload
  end

(* A fault spec is attached: each copy's fate is drawn on [frng], then
   its delay on [rng]. *)
let send_faulty t ~src ~dst ~now payload =
  let fa = Sim.faults t.sim in
  let plan = Faults.send_plan fa t.frng ~src ~dst ~now in
  let tr = Sim.trace t.sim in
  match plan.Faults.park with
  | Some until ->
      (* Parked, not lost: the link resumes service when the fault
         window closes and the message then takes a normal hop. *)
      Trace.incr tr "fault.parked";
      let d = Delay.sample t.delay ~rng:t.rng ~src ~dst ~now in
      send_at t ~src ~dst ~deliver_at:(until +. d) payload
  | None ->
      if plan.Faults.copies > 1 then
        Trace.add_to tr "fault.dup" (plan.Faults.copies - 1);
      if plan.Faults.extra > 0.0 then Trace.incr tr "fault.reorder";
      if plan.Faults.inflate <> 1.0 then Trace.incr tr "fault.inflated";
      for _copy = 1 to plan.Faults.copies do
        let d = Delay.sample t.delay ~rng:t.rng ~src ~dst ~now in
        let d = (d *. plan.Faults.inflate) +. plan.Faults.extra in
        send_at t ~src ~dst ~deliver_at:(now +. d) payload
      done

let send t ~src ~dst payload =
  if not (Sim.is_crashed t.sim src) then begin
    match (Sim.router t.sim, Sim.local t.sim) with
    (* Real-runtime egress: a send to a remote process leaves the
       simulator entirely — serialized, tagged, handed to the node's
       transport.  Self-sends stay on the local delivery path (with a
       sampled delay), so a process's own messages keep sim semantics. *)
    | Some route, Some l when dst <> l ->
        note_sent t ~full:(full t) ~src ~dst;
        route ~tag:t.tag ~src ~dst (Marshal.to_bytes payload [])
    | _ -> (
    match t.transport with
    (* Under a chooser the adversary owns delivery order: hand the
       message's row to the pending pool instead of sampling a delay (no
       RNG draw, so controlled runs don't perturb uncontrolled replays of
       the same seed).  A pick dispatches it as a one-row batch. *)
    | None when Sim.controlled t.sim ->
        note_sent t ~full:(full t) ~src ~dst;
        let r = row_alloc t ~src ~dst payload in
        Sim.offer t.sim ~src ~dst ~disp:t.disp ~row:r
    | None ->
        let now = Sim.now t.sim in
        if Sim.faults_none t.sim then
          let d = Delay.sample t.delay ~rng:t.rng ~src ~dst ~now in
          send_timed t ~full:(full t) ~src ~dst ~deliver_at:(now +. d) payload
        else send_faulty t ~src ~dst ~now payload
    | Some tr ->
        note_sent t ~full:(full t) ~src ~dst;
        Lossy.Transport.send tr ~src ~dst payload)
  end

(* Every copy of a broadcast takes the timed path or none does: the
   sender, routing, chooser, faults and trace level are checked once, and
   the n delays are drawn in one call, in destination order, as n [send]s
   would draw them. *)
let broadcast t ~src payload =
  let sim = t.sim in
  let n = Sim.n sim in
  let timed =
    (match t.transport with None -> true | Some _ -> false)
    && (match (Sim.router sim, Sim.local sim) with Some _, Some _ -> false | _ -> true)
    && (not (Sim.controlled sim))
    && Sim.faults_none sim
  in
  if not timed then
    for dst = 0 to n - 1 do
      send t ~src ~dst payload
    done
  else if not (Sim.is_crashed sim src) then begin
    let now = Sim.now sim in
    let full = full t in
    Delay.sample_row t.delay ~rng:t.rng ~src ~now t.delays n;
    for dst = 0 to n - 1 do
      send_timed t ~full ~src ~dst ~deliver_at:(now +. t.delays.(dst)) payload
    done
  end

let broadcast_staggered t ~src ~step payload =
  let n = Sim.n t.sim in
  let rec go dst =
    if dst < n then begin
      if not (Sim.is_crashed t.sim src) then begin
        send t ~src ~dst payload;
        Sim.schedule t.sim ~delay:step (fun () -> go (dst + 1))
      end
    end
  in
  go 0

let inbox t pid = if t.retain then Vec.to_list t.boxes.(pid) else []

(* The per-event quorum predicate: a slot lookup and its count. *)
let keyed_nsenders t pid key =
  let s = slot_find t pid key in
  if s >= 0 then t.k_count.(s) else 0

let keyed_senders t pid key =
  let s = slot_find t pid key in
  if s >= 0 then Pidset.of_words t.k_words (s * t.wpn) t.wpn else Pidset.empty

let keyed_fold (t : 'm t) pid key ~init ~f =
  let s = slot_find t pid key in
  if s < 0 then init
  else begin
    let srcs = t.k_src.(s) and pays = t.k_pay.(s) in
    let acc = ref init in
    for i = t.k_len.(s) - 1 downto 0 do
      acc := f !acc srcs.(i) (Obj.obj pays.(i) : 'm)
    done;
    !acc
  end

let keyed_drop t pid key =
  if key >= 0 && key < kdense_max then begin
    let row = dense_row t pid key in
    if row.(key) >= 0 then slot_release t row.(key);
    row.(key) <- k_retired
  end
  else begin
    let tbl = ovf t pid in
    (match Hashtbl.find_opt tbl key with
    | Some s when s >= 0 -> slot_release t s
    | _ -> ());
    Hashtbl.replace tbl key k_retired
  end

let on_deliver t h = t.handlers <- t.handlers @ [ h ]
let sent_count t = t.sent
let delivered_count t = t.delivered
