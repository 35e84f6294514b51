open Setagree_util
open Setagree_dsys

type 'm delivery = { origin : Pid.t; body : 'm }
type 'm tagged = { torigin : Pid.t; uid : int; body : 'm }

type 'm t = {
  sim : Sim.t;
  net : 'm tagged Net.t;
  stagger : float option;
  seen : (Pid.t * int, unit) Hashtbl.t array;
  conds : Sim.cond array;
  mutable next_uid : int array;
  mutable handlers : (Pid.t -> 'm delivery -> unit) list; (* registration order *)
}

let relay t ~src msg =
  match t.stagger with
  | None -> Net.broadcast t.net ~src msg
  | Some step -> Net.broadcast_staggered t.net ~src ~step msg

let rdeliver t pid (msg : 'm tagged) =
  let d = { origin = msg.torigin; body = msg.body } in
  List.iter (fun h -> h pid d) t.handlers;
  Sim.Cond.signal t.conds.(pid)

(* First receipt: relay before delivering, so that if this process is
   correct, everyone eventually gets the message (Termination). *)
let on_first t pid (msg : 'm tagged) =
  if not (Hashtbl.mem t.seen.(pid) (msg.torigin, msg.uid)) then begin
    Hashtbl.add t.seen.(pid) (msg.torigin, msg.uid) ();
    relay t ~src:pid msg;
    rdeliver t pid msg
  end

let create sim ?(tag = "rbcast") ?(delay = Delay.default) ?stagger ?loss () =
  let n = Sim.n sim in
  let t =
    {
      sim;
      net = Net.create sim ~tag ~delay ?loss ();
      stagger;
      seen = Array.init n (fun _ -> Hashtbl.create 64);
      conds = Array.init n (fun _ -> Sim.Cond.create sim);
      next_uid = Array.make n 0;
      handlers = [];
    }
  in
  Net.on_deliver t.net (fun env -> on_first t env.Net.dst env.Net.payload);
  t

let sim t = t.sim
let cond t pid = t.conds.(pid)

let broadcast t ~src body =
  if not (Sim.is_crashed t.sim src) then begin
    let uid = t.next_uid.(src) in
    t.next_uid.(src) <- uid + 1;
    let msg = { torigin = src; uid; body } in
    (* The origin marks, relays, and delivers locally — it "receives" its own
       message first. *)
    Hashtbl.add t.seen.(src) (src, uid) ();
    relay t ~src msg;
    rdeliver t src msg
  end

let on_deliver t h = t.handlers <- t.handlers @ [ h ]
let underlying_sent t = Net.sent_count t.net
