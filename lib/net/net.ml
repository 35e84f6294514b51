open Setagree_util
open Setagree_dsys

type 'm envelope = { src : Pid.t; dst : Pid.t; payload : 'm }

(* Per-(destination, key) aggregate maintained incrementally at delivery
   time, so blocked-predicate readiness checks are O(1) lookups instead of
   whole-mailbox rescans. *)
type 'm keyslot = {
  mutable k_senders : Pidset.t;
  mutable k_nsenders : int; (* = cardinal k_senders, maintained here *)
  mutable k_envs : 'm envelope list; (* newest-first, as [keyed_fold] walks it *)
}

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
  (* Mailboxes are append-only logs in delivery order, kept only with
     [retain]. *)
  boxes : 'm envelope Vec.t array;
  (* Keyed index storage: protocol classify keys are small dense ints
     (round/phase coordinates), so the common case is a direct array slot
     read; rare out-of-range keys (negative, or past the dense bound) fall
     back to a hashtable.  Looked up once per delivery and once per
     blocked-predicate evaluation, which is what rules out a generic-hash
     [Hashtbl.find] here. *)
  kdense : 'm keyslot option array array; (* per dst, key-indexed *)
  (* Distinct-sender counts mirrored out of the keyslots into flat int
     rows (grown in lockstep with [kdense]): the quorum predicates reading
     [keyed_nsenders] run on every blocked-predicate evaluation, and two
     flat array reads replace the option + record pointer chase. *)
  knsend : int array array;
  keyed_ovf : (int, 'm keyslot) Hashtbl.t array;
  (* What [keyed_drop] leaves in a retired key's place: a slot that is
     never written, so a late delivery for the key indexes nothing and
     the key's aggregates read empty.  Physical identity marks it. *)
  retired : 'm keyslot;
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
}

let kdense_max = 1 lsl 16

let fresh_keyslot () =
  { k_senders = Pidset.empty; k_nsenders = 0; k_envs = [] }

(* The dense row of [dst], grown (with its [knsend] mirror) to hold
   [key] < [kdense_max]. *)
let dense_row t dst key =
  let row = t.kdense.(dst) in
  let len = Array.length row in
  if key < len then row
  else begin
    let nlen = ref (max 16 (2 * len)) in
    while key >= !nlen do
      nlen := 2 * !nlen
    done;
    let row' = Array.make !nlen None in
    Array.blit row 0 row' 0 len;
    t.kdense.(dst) <- row';
    let kn' = Array.make !nlen 0 in
    Array.blit t.knsend.(dst) 0 kn' 0 len;
    t.knsend.(dst) <- kn';
    row'
  end

(* Get-or-create the slot for [key] at [dst] (the retired slot for a
   dropped key). *)
let keyslot_get t dst key =
  if key >= 0 && key < kdense_max then begin
    let row = dense_row t dst key in
    match row.(key) with
    | Some s -> s
    | None ->
        let s = fresh_keyslot () in
        row.(key) <- Some s;
        s
  end
  else
    match Hashtbl.find t.keyed_ovf.(dst) key with
    | s -> s
    | exception Not_found ->
        let s = fresh_keyslot () in
        Hashtbl.add t.keyed_ovf.(dst) key s;
        s

(* The slot for [key] at [pid], if a delivery created it or the key was
   retired. *)
let keyslot_find t pid key =
  if key >= 0 && key < kdense_max then
    let row = t.kdense.(pid) in
    if key < Array.length row then row.(key) else None
  else Hashtbl.find_opt t.keyed_ovf.(pid) key

let index t ~dst (env : 'm envelope) key =
  let slot = keyslot_get t dst key in
  if slot != t.retired then begin
    if not (Pidset.mem env.src slot.k_senders) then begin
      slot.k_senders <- Pidset.add env.src slot.k_senders;
      slot.k_nsenders <- slot.k_nsenders + 1;
      if key >= 0 && key < kdense_max then
        t.knsend.(dst).(key) <- slot.k_nsenders;
      (* Counts only increment by one, so [=] fires exactly at the
         crossing (a watch registered at-or-above its threshold is
         resolved by the await's immediate first evaluation instead). *)
      if t.watch_key.(dst) = key && slot.k_nsenders = t.watch_q.(dst) then
        Sim.Cond.signal t.watch_conds.(dst)
    end;
    slot.k_envs <- env :: slot.k_envs
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
  begin
    let env = { src; dst; payload } in
    if t.retain then Vec.push t.boxes.(dst) env;
    (match t.classify with Some f -> index t ~dst env (f payload) | None -> ());
    t.delivered <- t.delivered + 1;
    Trace.bump t.h_delivered 1;
    let tr = Sim.trace t.sim in
    if Trace.records_full tr then
      Trace.record tr ~time:(Sim.now t.sim)
        (Trace.Deliver { src; dst; tag = t.tag });
    (* Match form: no closure capture when the common cases (no handler,
       one handler) run on every delivery. *)
    (match t.handlers with
    | [] -> ()
    | [ h ] -> h env
    | hs -> List.iter (fun h -> h env) hs);
    Sim.Cond.signal t.conds.(dst)
  end

(* ---- Flat rows and batched dispatch ---- *)

let row_grow t =
  let cap = Array.length t.r_src in
  let ncap = max 16 (2 * cap) in
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
  if t.r_free = -1 then row_grow t;
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

(* Schedule a message for delivery at an absolute time.  Arena engine:
   append to the destination's open batch when one is queued for exactly
   this instant, else open a new batch (one event, one future mailbox
   drain for the whole batch).  Legacy engine: one closure event per
   message, the historical behavior. *)
let schedule_delivery t ~src ~dst ~deliver_at payload =
  if Sim.legacy_queue t.sim then
    Sim.at t.sim ~time:deliver_at (deliver t ~src ~dst payload)
  else begin
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
      boxes = Array.init n (fun _ -> Vec.create ());
      kdense = Array.make n [||];
      knsend = Array.make n [||];
      keyed_ovf = Array.init n (fun _ -> Hashtbl.create 4);
      retired = fresh_keyslot ();
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
    }
  in
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

let note_sent t ~src ~dst =
  t.sent <- t.sent + 1;
  Trace.bump t.h_sent 1;
  let tr = Sim.trace t.sim in
  if Trace.records_full tr then
    Trace.record tr ~time:(Sim.now t.sim) (Trace.Send { src; dst; tag = t.tag })

let send_at t ~src ~dst ~deliver_at payload =
  if not (Sim.is_crashed t.sim src) then begin
    note_sent t ~src ~dst;
    schedule_delivery t ~src ~dst
      ~deliver_at:(Float.max deliver_at (Sim.now t.sim))
      payload
  end

let send t ~src ~dst payload =
  if not (Sim.is_crashed t.sim src) then begin
    match (Sim.router t.sim, Sim.local t.sim) with
    (* Real-runtime egress: a send to a remote process leaves the
       simulator entirely — serialized, tagged, handed to the node's
       transport.  Self-sends stay on the local delivery path (with a
       sampled delay), so a process's own messages keep sim semantics. *)
    | Some route, Some l when dst <> l ->
        note_sent t ~src ~dst;
        route ~tag:t.tag ~src ~dst (Marshal.to_bytes payload [])
    | _ -> (
    match t.transport with
    (* Under a chooser the adversary owns delivery order: hand the
       message's row to the pending pool instead of sampling a delay (no
       RNG draw, so controlled runs don't perturb uncontrolled replays of
       the same seed).  A pick dispatches it as a one-row batch. *)
    | None when Sim.controlled t.sim ->
        note_sent t ~src ~dst;
        let r = row_alloc t ~src ~dst payload in
        Sim.offer t.sim ~src ~dst ~disp:t.disp ~row:r
    | None ->
        let now = Sim.now t.sim in
        if Sim.faults_none t.sim then
          let d = Delay.sample t.delay ~rng:t.rng ~src ~dst ~now in
          send_at t ~src ~dst ~deliver_at:(now +. d) payload
        else begin
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
        end
    | Some tr ->
        note_sent t ~src ~dst;
        Lossy.Transport.send tr ~src ~dst payload)
  end

let broadcast t ~src payload =
  for dst = 0 to Sim.n t.sim - 1 do
    send t ~src ~dst payload
  done

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

let inbox t pid = Vec.to_list t.boxes.(pid)

(* The per-event quorum predicate: two flat reads off the mirror rows. *)
let keyed_nsenders t pid key =
  if key >= 0 && key < kdense_max then begin
    let row = t.knsend.(pid) in
    if key < Array.length row then row.(key) else 0
  end
  else match keyslot_find t pid key with Some s -> s.k_nsenders | None -> 0

let keyed_senders t pid key =
  match keyslot_find t pid key with
  | Some s -> s.k_senders
  | None -> Pidset.empty

let keyed_fold t pid key ~init ~f =
  match keyslot_find t pid key with
  | Some s -> List.fold_left f init s.k_envs
  | None -> init

let keyed_drop t pid key =
  if key >= 0 && key < kdense_max then begin
    (dense_row t pid key).(key) <- Some t.retired;
    t.knsend.(pid).(key) <- 0
  end
  else Hashtbl.replace t.keyed_ovf.(pid) key t.retired

let on_deliver t h = t.handlers <- t.handlers @ [ h ]
let sent_count t = t.sent
let delivered_count t = t.delivered
