open Setagree_util
open Setagree_dsys
open Setagree_net

type t = { sim : Sim.t; net : unit Net.t; timeouts : Timeout.t }

let suspects t i j =
  j <> i
  && (not (Sim.is_crashed t.sim i))
  && Timeout.expired t.timeouts i j ~now:(Sim.now t.sim)

let install sim ?(period = 1.0) ?(initial_timeout = 3.0) ?(backoff = 1.5)
    ?(timeout_cap = 60.0) ?(timeout_jitter = 0.1)
    ?(delay = Delay.Psync { gst = 30.0; bound = 2.0; pre_spread = 25.0 }) () =
  let n = Sim.n sim in
  let net = Net.create sim ~tag:"impl.hb" ~delay () in
  let t =
    {
      sim;
      net;
      timeouts =
        Timeout.create ~initial:initial_timeout ~factor:backoff
          ~cap:timeout_cap ~jitter:timeout_jitter
          ~rng:(Rng.split_named (Sim.rng sim) "impl:timeout")
          ~n ();
    }
  in
  Net.on_deliver net (fun (e : unit Net.envelope) ->
      (* [Timeout.heard] backs the threshold off when the heartbeat
         disproves a suspicion in effect — false suspicions (a stall, a
         slow pre-GST link) happen finitely often once the network's
         bound holds, so the thresholds stabilize below the cap. *)
      Timeout.heard t.timeouts e.dst e.src ~now:(Sim.now sim));
  for i = 0 to n - 1 do
    Sim.spawn sim ~pid:i (fun () ->
        while true do
          Net.broadcast net ~src:i ();
          Sim.sleep period
        done)
  done;
  t

let suspector t =
  let n = Sim.n t.sim in
  {
    Iface.suspected =
      (fun i ->
        let s = ref Pidset.empty in
        for j = 0 to n - 1 do
          if suspects t i j then s := Pidset.add j !s
        done;
        !s);
  }

let omega t ~z =
  let n = Sim.n t.sim in
  Result.iter_error (fun e -> invalid_arg ("Impl.omega: " ^ e)) (Oracle.check_z ~n ~z);
  {
    Iface.trusted =
      (fun i ->
        let s = ref Pidset.empty in
        let j = ref 0 in
        while Pidset.cardinal !s < z && !j < n do
          if not (suspects t i !j) then s := Pidset.add !j !s;
          incr j
        done;
        (* Degenerate corner: everyone looks suspect (possible only very
           early); fall back to self. *)
        if Pidset.is_empty !s then Pidset.singleton i else !s);
  }

let querier t ~y =
  let tb = Sim.t_bound t.sim in
  Result.iter_error (fun e -> invalid_arg ("Impl.querier: " ^ e)) (Oracle.check_y ~t:tb ~y);
  let log : Oracle.query_log = ref [] in
  let query i x =
    let c = Pidset.cardinal x in
    let result =
      if c <= tb - y then true
      else if c > tb then false
      else Pidset.for_all (fun j -> suspects t i j) x
    in
    log :=
      { Oracle.q_time = Sim.now t.sim; q_pid = i; q_set = x; q_result = result } :: !log;
    result
  in
  ({ Iface.query }, log)

let timeout_of t i j = Timeout.current t.timeouts i j
let timeouts t = t.timeouts
let heartbeats_sent t = Net.sent_count t.net
