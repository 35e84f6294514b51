open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_shm
open Setagree_fd

type t = {
  outputs : Pidset.t array;
  refreshes : int array;
}

let output t =
  { Iface.suspected = (fun i -> t.outputs.(i)) }

let refreshes t i = t.refreshes.(i)

(* The outer/inner loop of task T2 (Figure 9), abstracted over how the
   heartbeat counters and suspicion sets are read.  [read_counters] fills an
   array with the current counters (taking virtual time as the substrate
   dictates); [read_suspect j] reads p_j's published suspicion set. *)
let t2_loop sim ~t ~i ~(querier : Iface.querier) ~read_counters ~read_suspect
    ~pause () =
  let n = Sim.n sim in
  let prev = Array.make n 0 in
  let neu = Array.make n 0 in
  while true do
    (* Inner loop: snapshot until the stale region is query-certified. *)
    let rec snapshot () =
      read_counters neu;
      let live = ref Pidset.empty in
      for j = 0 to n - 1 do
        if neu.(j) > prev.(j) then live := Pidset.add j !live
      done;
      let x = Pidset.diff (Pidset.full ~n) !live in
      if querier.Iface.query i x then !live
      else begin
        pause ();
        snapshot ()
      end
    in
    let live = snapshot () in
    Array.blit neu 0 prev 0 n;
    let inter =
      Pidset.fold
        (fun j acc -> Pidset.inter acc (read_suspect j))
        live
        (Pidset.full ~n)
    in
    t.outputs.(i) <- Pidset.diff inter live;
    t.refreshes.(i) <- t.refreshes.(i) + 1;
    pause ()
  done

let install_shm sim ~(suspector : Iface.suspector) ~querier ?(step = 1.0)
    ?(access_time = 0.05) () =
  let n = Sim.n sim in
  let alive = Array.init n (fun i -> Register.create sim ~writer:i ~access_time 0) in
  let suspect =
    Array.init n (fun i -> Register.create sim ~writer:i ~access_time Pidset.empty)
  in
  let t = { outputs = Array.make n Pidset.empty; refreshes = Array.make n 0 } in
  for i = 0 to n - 1 do
    (* Task T1: publish the heartbeat and the raw suspicions. *)
    Sim.spawn sim ~pid:i (fun () ->
        let count = ref 0 in
        while true do
          incr count;
          Register.write alive.(i) ~by:i !count;
          Register.write suspect.(i) ~by:i (suspector.Iface.suspected i);
          Sim.sleep step
        done);
    (* Task T2. *)
    Sim.spawn sim ~pid:i (fun () ->
        let read_counters dst =
          for j = 0 to n - 1 do
            dst.(j) <- Register.read alive.(j) ~by:i
          done
        in
        let read_suspect j = Register.read suspect.(j) ~by:i in
        t2_loop sim ~t ~i ~querier ~read_counters ~read_suspect
          ~pause:(fun () -> Sim.sleep step)
          ())
  done;
  t

type hb = { count : int; suspicions : Pidset.t }

let install_mp sim ~(suspector : Iface.suspector) ~querier ?(step = 1.0)
    ?(delay = Delay.default) () =
  let n = Sim.n sim in
  let net : hb Net.t = Net.create sim ~tag:"strengthen.hb" ~delay () in
  (* latest.(i).(j): the freshest heartbeat p_i received from p_j. *)
  let latest = Array.init n (fun _ -> Array.make n { count = 0; suspicions = Pidset.empty }) in
  Net.on_deliver net (fun (e : hb Net.envelope) ->
      if e.payload.count > latest.(e.dst).(e.src).count then
        latest.(e.dst).(e.src) <- e.payload);
  let t = { outputs = Array.make n Pidset.empty; refreshes = Array.make n 0 } in
  for i = 0 to n - 1 do
    Sim.spawn sim ~pid:i (fun () ->
        let count = ref 0 in
        while true do
          incr count;
          Net.broadcast net ~src:i
            { count = !count; suspicions = suspector.Iface.suspected i };
          Sim.sleep step
        done);
    Sim.spawn sim ~pid:i (fun () ->
        let read_counters dst =
          for j = 0 to n - 1 do
            dst.(j) <- latest.(i).(j).count
          done
        in
        let read_suspect j = latest.(i).(j).suspicions in
        t2_loop sim ~t ~i ~querier ~read_counters ~read_suspect
          ~pause:(fun () -> Sim.sleep step)
          ())
  done;
  t
