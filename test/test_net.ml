(* Tests for the network substrate: channels, delay models, broadcast and
   the reliable-broadcast implementation (validity, integrity, termination —
   including crash-interrupted partial broadcasts, the case the echo relay
   exists for). *)

open Setagree_util
open Setagree_dsys
open Setagree_net

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk ?(horizon = 1000.0) ?(n = 5) ?(t = 2) ?(seed = 1) () =
  Sim.create ~horizon ~n ~t ~seed ()

(* Delay models *)

let test_delay_constant () =
  let rng = Rng.create 1 in
  Alcotest.(check (float 0.0)) "constant" 2.5
    (Delay.sample (Delay.Constant 2.5) ~rng ~src:0 ~dst:1 ~now:0.0)

let test_delay_uniform_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 200 do
    let d = Delay.sample (Delay.Uniform (1.0, 2.0)) ~rng ~src:0 ~dst:1 ~now:0.0 in
    check "uniform range" true (d >= 1.0 && d < 2.0)
  done

let test_delay_exponential_nonneg () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    check "exp >= 0" true
      (Delay.sample (Delay.Exponential 1.0) ~rng ~src:0 ~dst:1 ~now:0.0 >= 0.0)
  done

let test_delay_fn_adversary () =
  let rng = Rng.create 4 in
  let adv = Delay.Fn (fun ~rng:_ ~src ~dst ~now:_ -> float_of_int ((src * 10) + dst)) in
  Alcotest.(check (float 0.0)) "fn" 12.0 (Delay.sample adv ~rng ~src:1 ~dst:2 ~now:0.0)

let test_delay_clamped () =
  let rng = Rng.create 5 in
  let neg = Delay.Fn (fun ~rng:_ ~src:_ ~dst:_ ~now:_ -> -5.0) in
  Alcotest.(check (float 0.0)) "clamped to 0" 0.0 (Delay.sample neg ~rng ~src:0 ~dst:1 ~now:0.0)

(* Channels *)

(* Tests observe deliveries the way protocols do, through [on_deliver]:
   [received net] gives, per destination, the envelopes handed to the
   handlers so far in delivery order, each with the [Sim.now] the
   handler saw. *)
let received net =
  let log = ref [] in
  Net.on_deliver net (fun e -> log := (e, Sim.now (Net.sim net)) :: !log);
  fun dst -> List.rev (List.filter (fun ((e : _ Net.envelope), _) -> e.dst = dst) !log)

let payloads got = List.map (fun ((e : _ Net.envelope), _) -> e.payload) got

let test_send_delivers () =
  let sim = mk () in
  let net : string Net.t = Net.create sim ~delay:(Delay.Constant 1.0) () in
  let got = received net in
  Net.send net ~src:0 ~dst:1 "hello";
  ignore (Sim.run sim);
  match got 1 with
  | [ (e, at) ] ->
      check "payload" true (e.payload = "hello");
      check_int "src" 0 e.src;
      Alcotest.(check (float 0.001)) "delivered at" 1.0 at
  | l -> Alcotest.failf "expected 1 message, got %d" (List.length l)

let test_no_loss_no_dup () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let received = received net in
  for i = 1 to 100 do
    Net.send net ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  let got = payloads (received 1) in
  Alcotest.(check (list int)) "all delivered exactly once" (List.init 100 (fun i -> i + 1))
    (List.sort compare got)

let test_non_fifo_possible () =
  (* With spread-out delays, some pair of messages is reordered. *)
  let sim = mk ~seed:3 () in
  let net : int Net.t = Net.create sim ~delay:(Delay.Uniform (0.1, 10.0)) () in
  let received = received net in
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  let got = payloads (received 1) in
  check "reordering observed" true (got <> List.sort compare got)

let test_send_from_crashed_dropped () =
  let sim = mk () in
  Sim.install_crashes sim [ (0, 1.0) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 1.0) () in
  let got = received net in
  Sim.schedule sim ~delay:5.0 (fun () -> Net.send net ~src:0 ~dst:1 99);
  ignore (Sim.run sim);
  check_int "dead senders send nothing" 0 (List.length (got 1))

let test_send_to_crashed_dropped () =
  let sim = mk () in
  Sim.install_crashes sim [ (1, 0.5) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 2.0) () in
  let got = received net in
  Net.send net ~src:0 ~dst:1 7;
  ignore (Sim.run sim);
  check_int "no delivery to the dead" 0 (List.length (got 1))

let test_in_flight_survives_sender_crash () =
  let sim = mk () in
  Sim.install_crashes sim [ (0, 1.0) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 5.0) () in
  let got = received net in
  Net.send net ~src:0 ~dst:1 42;
  ignore (Sim.run sim);
  check_int "in-flight delivered" 1 (List.length (got 1))

let test_send_at_adversarial () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let got = received net in
  Net.send_at net ~src:0 ~dst:1 ~deliver_at:33.25 5;
  ignore (Sim.run sim);
  match got 1 with
  | [ (_, at) ] -> Alcotest.(check (float 0.001)) "exact time" 33.25 at
  | _ -> Alcotest.fail "one message expected"

let test_broadcast_reaches_all () =
  let sim = mk ~n:5 () in
  let net : string Net.t = Net.create sim () in
  let got = received net in
  Net.broadcast net ~src:2 "b";
  ignore (Sim.run sim);
  for i = 0 to 4 do
    check_int "everyone got it (incl. sender)" 1 (List.length (got i))
  done

let test_broadcast_staggered_partial_on_crash () =
  let sim = mk ~n:5 ~t:1 () in
  Sim.install_crashes sim [ (0, 1.0) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 0.1) () in
  let got = received net in
  (* Sender p0 crashes at 1.0; with step 0.4 it reaches only destinations
     0, 1, 2 (sent at 0.0, 0.4, 0.8). *)
  Net.broadcast_staggered net ~src:0 ~step:0.4 7;
  ignore (Sim.run sim);
  let receivers = List.filter (fun i -> got i <> []) (List.init 5 Fun.id) in
  Alcotest.(check (list int)) "prefix only" [ 0; 1; 2 ] receivers

let test_on_deliver_callbacks () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let seen = ref [] in
  Net.on_deliver net (fun e -> seen := (e.dst, e.payload) :: !seen);
  Net.send net ~src:0 ~dst:2 9;
  ignore (Sim.run sim);
  Alcotest.(check (list (pair int int))) "callback fired" [ (2, 9) ] !seen

(* Mailboxes are kept only on request: by default a net retains nothing,
   while handlers and counters still see every delivery. *)
let test_retain_false_empty_inbox () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let kept : int Net.t = Net.create sim ~tag:"kept" ~retain:true () in
  let count = ref 0 in
  Net.on_deliver net (fun _ -> incr count);
  Net.send net ~src:0 ~dst:1 1;
  Net.send kept ~src:0 ~dst:1 2;
  ignore (Sim.run sim);
  check_int "callback still fires" 1 !count;
  check_int "inbox empty" 0 (List.length (Net.inbox net 1));
  check_int "counter still counts" 1 (Net.delivered_count net);
  Alcotest.(check (list int)) "~retain:true keeps the mailbox" [ 2 ]
    (List.map (fun (e : int Net.envelope) -> e.payload) (Net.inbox kept 1))

let test_counters () =
  let sim = mk ~n:5 () in
  let net : unit Net.t = Net.create sim () in
  Net.broadcast net ~src:0 ();
  ignore (Sim.run sim);
  check_int "sent" 5 (Net.sent_count net);
  check_int "delivered" 5 (Net.delivered_count net)

(* The keyed payloads, oldest first ([keyed_fold] walks newest first). *)
let keyed_payloads net pid key =
  Net.keyed_fold net pid key ~init:[] ~f:(fun acc _ payload -> payload :: acc)

let test_keyed_index_matches_filters () =
  (* The delivery-time keyed index must agree with what the handlers saw,
     filtered by key, including order. *)
  let sim = mk ~seed:9 () in
  let net : int Net.t =
    Net.create sim ~delay:(Delay.Uniform (0.1, 3.0)) ~classify:(fun m -> m mod 2) ()
  in
  let got = received net in
  for i = 1 to 40 do
    Net.send net ~src:(i mod 4) ~dst:4 i
  done;
  ignore (Sim.run sim);
  List.iter
    (fun key ->
      let matching = List.filter (fun ((e : int Net.envelope), _) -> e.payload mod 2 = key) (got 4) in
      let senders =
        List.fold_left (fun acc ((e : int Net.envelope), _) -> Pidset.add e.src acc) Pidset.empty matching
      in
      check "senders" true (Pidset.equal senders (Net.keyed_senders net 4 key));
      check_int "nsenders" (Pidset.cardinal senders) (Net.keyed_nsenders net 4 key);
      Alcotest.(check (list int)) "envelopes in delivery order" (payloads matching)
        (keyed_payloads net 4 key))
    [ 0; 1 ];
  check "absent key senders" true (Pidset.is_empty (Net.keyed_senders net 4 7));
  check_int "absent key nsenders" 0 (Net.keyed_nsenders net 4 7);
  check_int "absent key envs" 0 (List.length (keyed_payloads net 4 7))

let test_keyed_index_with_retain_false () =
  let sim = mk () in
  let net : int Net.t = Net.create sim ~classify:(fun m -> m) () in
  Net.send net ~src:0 ~dst:1 5;
  Net.send net ~src:2 ~dst:1 5;
  ignore (Sim.run sim);
  check_int "inbox empty" 0 (List.length (Net.inbox net 1));
  Alcotest.(check (list int)) "keyed envelopes still maintained" [ 5; 5 ]
    (keyed_payloads net 1 5);
  check "keyed senders still maintained" true
    (Pidset.equal (Pidset.of_list [ 0; 2 ]) (Net.keyed_senders net 1 5))

(* A retired key stays retired: late deliveries for it are still
   delivered (counted, retained, handed to handlers) but index nothing —
   for a key retired after deliveries, one retired before any, and keys
   outside the dense range on either side.  Other keys index as usual. *)
let test_keyed_drop_retires () =
  let sim = mk () in
  let net : int Net.t =
    Net.create sim ~delay:(Delay.Constant 1.0) ~retain:true ~classify:(fun m -> m / 10) ()
  in
  let handled = ref 0 in
  Net.on_deliver net (fun _ -> incr handled);
  let used = 50 and early = 4_000 and neg = -3 and big = 100_000 in
  Net.send net ~src:0 ~dst:1 (used * 10);
  Sim.schedule sim ~delay:2.0 (fun () ->
      check_int "indexed before the drop" 1 (List.length (keyed_payloads net 1 used));
      List.iter (Net.keyed_drop net 1) [ used; early; neg; big ];
      List.iter
        (fun key ->
          Net.send net ~src:2 ~dst:1 (key * 10);
          Net.send net ~src:3 ~dst:1 (key * 10))
        [ used; early; neg; big; 7 ]);
  ignore (Sim.run sim);
  List.iter
    (fun key ->
      let label = Printf.sprintf "key %d" key in
      check (label ^ ": senders") true (Pidset.is_empty (Net.keyed_senders net 1 key));
      check_int (label ^ ": nsenders") 0 (Net.keyed_nsenders net 1 key);
      check_int (label ^ ": envs") 0 (List.length (keyed_payloads net 1 key)))
    [ used; early; neg; big ];
  check_int "live key indexed" 2 (List.length (keyed_payloads net 1 7));
  check "live key senders" true
    (Pidset.equal (Pidset.of_list [ 2; 3 ]) (Net.keyed_senders net 1 7));
  check_int "all delivered" 11 (Net.delivered_count net);
  check_int "all handled" 11 !handled;
  check_int "all retained" 11 (List.length (Net.inbox net 1))

(* The keyed index against a list model built from what the handlers
   see.  Four processes broadcast, drop keys and check the index at
   scheduled instants: keys in the dense range, a negative one and one
   past it; a drop before any delivery, between deliveries and after
   all of them, so late deliveries reach retired keys; and freed slots
   reused by later keys.  Half the cases run under a [dup] fault, whose
   broadcasts take the per-destination path and deliver some copies
   twice.  [keyed_nsenders], [keyed_senders] and [keyed_fold] (newest
   first) must match the model at every check and at the end. *)
let qcheck_keyed_index_model =
  let keys = [| 0; 1; 2; 3; -3; 70_000 |] and n = 4 in
  let dup =
    Result.get_ok
      (Faults.of_json (Json.of_string_exn {|{"links":[{"from":0,"until":1000,"dup":0.5}]}|}))
  in
  let gen =
    QCheck.Gen.(
      pair bool (list_size (int_range 1 60) (triple (int_bound 4) (int_bound (n - 1)) (int_bound 5))))
  in
  let print (faulty, ops) =
    Printf.sprintf "dup=%b %s" faulty
      (String.concat ","
         (List.map (fun (op, p, k) -> Printf.sprintf "%d:%d:%d" op p keys.(k)) ops))
  in
  QCheck.Test.make ~name:"keyed index = list model" ~count:200 (QCheck.make ~print gen)
    (fun (faulty, ops) ->
      let sim = mk ~n ~t:1 ~seed:(List.length ops) () in
      if faulty then Sim.set_faults sim dup;
      let net : (int * int) Net.t =
        Net.create sim ~delay:(Delay.Uniform (0.1, 2.0)) ~classify:fst ()
      in
      (* (dst, key) -> deliveries as (src, payload), newest first *)
      let model = Hashtbl.create 16 and retired = Hashtbl.create 16 in
      let seen dst key = Option.value ~default:[] (Hashtbl.find_opt model (dst, key)) in
      Net.on_deliver net (fun e ->
          let key = fst e.Net.payload in
          if not (Hashtbl.mem retired (e.Net.dst, key)) then
            Hashtbl.replace model (e.Net.dst, key)
              ((e.Net.src, e.Net.payload) :: seen e.Net.dst key));
      let ok = ref true in
      let check_all () =
        for dst = 0 to n - 1 do
          Array.iter
            (fun key ->
              let m = seen dst key in
              let senders = Pidset.of_list (List.map fst m) in
              let folded =
                Net.keyed_fold net dst key ~init:[] ~f:(fun acc src p -> (src, p) :: acc)
              in
              if
                Net.keyed_nsenders net dst key <> Pidset.cardinal senders
                || not (Pidset.equal (Net.keyed_senders net dst key) senders)
                || List.rev folded <> m
              then ok := false)
            keys
        done
      in
      List.iteri
        (fun i (op, p, k) ->
          Sim.schedule sim ~delay:(0.3 *. float_of_int i) (fun () ->
              match op with
              | 0 | 1 -> Net.broadcast net ~src:p (keys.(k), i)
              | 2 ->
                  Net.keyed_drop net p keys.(k);
                  Hashtbl.replace retired (p, keys.(k)) ();
                  Hashtbl.remove model (p, keys.(k))
              | _ -> check_all ()))
        ops;
      ignore (Sim.run sim);
      check_all ();
      !ok)

(* The timed message path's allocation budget.  All-to-all rounds of 32
   processes with keyed quorum waits, shaped like the net probe of the
   benchmark's engine ladder: each delivery may allocate at most 12
   minor words (one boxed delivery time per message, and the event
   loop's per-event floats). *)
let test_broadcast_round_allocation () =
  let n = 32 and t = 15 and rounds = 10 in
  let sim = Sim.create ~horizon:1e6 ~trace_level:Trace.Off ~n ~t ~seed:1 () in
  let net : int Net.t = Net.create sim ~classify:Fun.id () in
  for i = 0 to n - 1 do
    Sim.spawn sim ~pid:i (fun () ->
        for r = 1 to rounds do
          Net.broadcast net ~src:i r;
          Sim.Cond.await
            [ Net.quorum_cond net i ~key:r ~q:(n - t) ]
            (fun () -> Net.keyed_nsenders net i r >= n - t);
          Net.keyed_drop net i r
        done)
  done;
  let w0 = Gc.minor_words () in
  ignore (Sim.run sim);
  let per = (Gc.minor_words () -. w0) /. float_of_int (Net.delivered_count net) in
  check_int "every message delivered" (n * n * rounds) (Net.delivered_count net);
  check (Printf.sprintf "%.1f minor words per delivery, at most 12" per) true (per <= 12.0)

let test_handlers_run_in_registration_order () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let order = ref [] in
  Net.on_deliver net (fun _ -> order := 1 :: !order);
  Net.on_deliver net (fun _ -> order := 2 :: !order);
  Net.send net ~src:0 ~dst:1 0;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !order)

let test_delivery_signals_cond () =
  let sim = mk () in
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 1.0) () in
  let got = received net in
  let woke = ref false in
  Sim.spawn sim ~pid:1 (fun () ->
      Sim.Cond.await [ Net.cond net 1 ] (fun () -> got 1 <> []);
      woke := true);
  Net.send net ~src:0 ~dst:1 5;
  ignore (Sim.run sim);
  check "delivery woke the waiter" true !woke

(* Every way a message reaches a handler: the timed batch, a
   re-presentation after a stall, a controlled pick, the lossy transport
   and real-runtime ingress.  Each hands every message to the handlers
   once, with sender, destination and payload intact, and at the full
   trace level each [Deliver] entry carries the time the handler saw. *)
let test_delivery_paths () =
  let full ?local () =
    Sim.create ?local ~horizon:1000.0 ~trace_level:Trace.Full ~n:4 ~t:1 ~seed:3 ()
  in
  (* Each path sends to one destination, so its deliveries are the whole
     trace's [Deliver] entries. *)
  let verify label sim got expected =
    Alcotest.(check (list (triple int int int)))
      (label ^ ": each message once, intact")
      (List.sort compare expected)
      (List.sort compare (List.map (fun ((e : int Net.envelope), _) -> (e.src, e.dst, e.payload)) got));
    let delivers =
      List.filter_map
        (fun { Trace.time; entry } ->
          match entry with Trace.Deliver { src; dst; _ } -> Some (src, dst, time) | _ -> None)
        (Trace.entries (Sim.trace sim))
    in
    Alcotest.(check (list (triple int int (float 0.0))))
      (label ^ ": Deliver entries at the handler's now")
      (List.map (fun ((e : int Net.envelope), at) -> (e.src, e.dst, at)) got)
      delivers
  in
  let times got = List.map snd got in
  (* Three messages reach p3 at one instant: one batch. *)
  let sim = full () in
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 1.0) () in
  let got = received net in
  List.iter (fun src -> Net.send net ~src ~dst:3 (10 + src)) [ 0; 1; 2 ];
  ignore (Sim.run sim);
  verify "batch" sim (got 3) [ (0, 3, 10); (1, 3, 11); (2, 3, 12) ];
  Alcotest.(check (list (float 0.0))) "batch: one instant" [ 1.0; 1.0; 1.0 ] (times (got 3));
  (* p3 is stalled when the message arrives: the channel re-presents it at
     the stall's end. *)
  let sim = full () in
  Sim.install_stalls sim [ { Faults.s_pid = 3; s_from = 0.5; s_until = 4.0 } ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 1.0) () in
  let got = received net in
  Net.send net ~src:0 ~dst:3 20;
  ignore (Sim.run sim);
  verify "stall" sim (got 3) [ (0, 3, 20) ];
  Alcotest.(check (list (float 0.0))) "stall: at the stall's end" [ 4.0 ] (times (got 3));
  check_int "stall: deferred" 1 (Trace.counter (Sim.trace sim) "fault.deferred");
  (* A chooser picks the newest offer first. *)
  let sim = full () in
  let net : int Net.t = Net.create sim () in
  let got = received net in
  Sim.set_chooser sim (fun _ m -> if m > 0 then Sim.Deliver (m - 1) else Sim.Pass);
  Net.send net ~src:0 ~dst:1 30;
  Net.send net ~src:2 ~dst:1 31;
  ignore (Sim.run sim);
  verify "pick" sim (got 1) [ (0, 1, 30); (2, 1, 31) ];
  Alcotest.(check (list int)) "pick: the chooser's order" [ 31; 30 ] (payloads (got 1));
  (* Lost copies are resent; the transport hands each message over once. *)
  let sim = full () in
  let net : int Net.t = Net.create sim ~loss:0.5 () in
  let got = received net in
  for m = 40 to 49 do
    Net.send net ~src:(m mod 3) ~dst:3 m
  done;
  ignore (Sim.run sim);
  verify "lossy" sim (got 3) (List.init 10 (fun i -> ((40 + i) mod 3, 3, 40 + i)));
  check "lossy: copies were resent" true (Trace.counter (Sim.trace sim) "net.retransmits" > 0);
  (* Messages off the wire are delivered at the local simulator's next
     tick. *)
  let sim = full ~local:1 () in
  let net : int Net.t = Net.create sim () in
  let got = received net in
  Net.inject net ~src:0 50;
  Net.inject net ~src:2 51;
  ignore (Sim.advance sim ~upto:1.0);
  verify "inject" sim (got 1) [ (0, 1, 50); (2, 1, 51) ]

(* Reliable broadcast *)

(* The R-deliveries handed to [on_deliver] handlers so far, per process,
   in delivery order. *)
let rdelivered rb =
  let log = ref [] in
  Rbcast.on_deliver rb (fun pid d -> log := (pid, d) :: !log);
  fun i -> List.rev (List.filter_map (fun (p, d) -> if p = i then Some d else None) !log)

let test_rb_basic_delivery () =
  let sim = mk ~n:5 () in
  let rb : string Rbcast.t = Rbcast.create sim () in
  let delivered = rdelivered rb in
  Rbcast.broadcast rb ~src:1 "m";
  ignore (Sim.run sim);
  for i = 0 to 4 do
    match delivered i with
    | [ d ] ->
        check "payload" true (d.body = "m");
        check_int "origin" 1 d.origin
    | l -> Alcotest.failf "p%d delivered %d times" (i + 1) (List.length l)
  done

let test_rb_integrity_no_duplicates () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let delivered = rdelivered rb in
  for k = 1 to 20 do
    Rbcast.broadcast rb ~src:(k mod 5) k
  done;
  ignore (Sim.run sim);
  for i = 0 to 4 do
    let got = List.map (fun (d : int Rbcast.delivery) -> d.body) (delivered i) in
    Alcotest.(check (list int)) "each message once" (List.init 20 (fun k -> k + 1))
      (List.sort compare got)
  done

let test_rb_termination_under_origin_crash () =
  (* Origin crashes mid-staggered-broadcast: having reached one process, the
     relay must spread the message to every correct process. *)
  let sim = mk ~n:5 ~t:1 ~seed:7 () in
  Sim.install_crashes sim [ (0, 0.5) ];
  let rb : int Rbcast.t =
    Rbcast.create sim ~delay:(Delay.Constant 0.1) ~stagger:0.3 ()
  in
  let delivered = rdelivered rb in
  Rbcast.broadcast rb ~src:0 99;
  ignore (Sim.run sim);
  (* p0 reached destinations 0 and 1 before dying (sends at 0.0 and 0.3);
     p1 must have relayed to everyone. *)
  for i = 1 to 4 do
    check_int "correct process delivered" 1 (List.length (delivered i))
  done

let test_rb_all_or_nothing_when_unreached () =
  (* If the origin crashes before any send, nobody delivers. *)
  let sim = mk ~n:5 ~t:1 () in
  Sim.install_crashes sim [ (0, 0.0) ];
  let rb : int Rbcast.t = Rbcast.create sim () in
  let delivered = rdelivered rb in
  Sim.schedule sim ~delay:1.0 (fun () -> Rbcast.broadcast rb ~src:0 1);
  ignore (Sim.run sim);
  for i = 0 to 4 do
    check_int "nobody delivered" 0 (List.length (delivered i))
  done

let test_rb_validity_no_spurious () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let delivered = rdelivered rb in
  Rbcast.broadcast rb ~src:2 5;
  ignore (Sim.run sim);
  for i = 0 to 4 do
    List.iter
      (fun (d : int Rbcast.delivery) -> check "only the sent message" true (d.body = 5 && d.origin = 2))
      (delivered i)
  done

let test_rb_agreement_same_set_everywhere () =
  (* All correct processes deliver the same multiset, across random delays
     and crashes. *)
  for seed = 1 to 10 do
    let sim = mk ~n:6 ~t:2 ~seed () in
    let rng = Rng.split_named (Sim.rng sim) "crash" in
    Sim.install_crashes sim
      (Crash.generate (Crash.Exactly { crashes = 2; window = (0.0, 3.0) }) ~n:6 ~t:2 rng);
    let rb : int Rbcast.t =
      Rbcast.create sim ~delay:(Delay.Uniform (0.1, 2.0)) ~stagger:0.2 ()
    in
    let delivered = rdelivered rb in
    for k = 0 to 5 do
      Sim.schedule sim ~delay:(float_of_int k) (fun () -> Rbcast.broadcast rb ~src:k (100 + k))
    done;
    ignore (Sim.run sim);
    let correct = Pidset.to_list (Sim.correct_set sim) in
    let sets =
      List.map
        (fun i ->
          List.sort compare
            (List.map (fun (d : int Rbcast.delivery) -> (d.origin, d.body)) (delivered i)))
        correct
    in
    match sets with
    | [] -> Alcotest.fail "no correct process"
    | first :: rest ->
        List.iter (fun s -> check "same delivered multiset" true (s = first)) rest
  done

let test_rb_on_deliver_callback () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let count = ref 0 in
  Rbcast.on_deliver rb (fun _pid _d -> incr count);
  Rbcast.broadcast rb ~src:0 1;
  ignore (Sim.run sim);
  check_int "one callback per process" 5 !count

let test_rb_cond_signalled_on_rdelivery () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let decided = ref false in
  Rbcast.on_deliver rb (fun pid _ -> if pid = 3 then decided := true);
  let woke = ref false in
  Sim.spawn sim ~pid:3 (fun () ->
      Sim.Cond.await [ Rbcast.cond rb 3 ] (fun () -> !decided);
      woke := true);
  Sim.schedule sim ~delay:1.0 (fun () -> Rbcast.broadcast rb ~src:0 9);
  ignore (Sim.run sim);
  check "R-delivery woke the waiter" true !woke

let test_rb_handlers_registration_order () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let order = ref [] in
  Rbcast.on_deliver rb (fun pid _ -> if pid = 0 then order := 1 :: !order);
  Rbcast.on_deliver rb (fun pid _ -> if pid = 0 then order := 2 :: !order);
  Rbcast.broadcast rb ~src:0 1;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !order)

let test_rb_delivery_order_can_differ () =
  (* Non-FIFO: two messages R-broadcast close together can be R-delivered in
     different orders at different processes, for some seed. *)
  let differs = ref false in
  for seed = 1 to 30 do
    if not !differs then begin
      let sim = mk ~n:5 ~seed () in
      let rb : int Rbcast.t = Rbcast.create sim ~delay:(Delay.Uniform (0.1, 5.0)) () in
      let delivered = rdelivered rb in
      Rbcast.broadcast rb ~src:0 1;
      Rbcast.broadcast rb ~src:1 2;
      ignore (Sim.run sim);
      let order i = List.map (fun (d : int Rbcast.delivery) -> d.body) (delivered i) in
      for i = 0 to 4 do
        if order i <> order 0 then differs := true
      done
    end
  done;
  check "some seed shows divergent delivery order" true !differs

(* Fair-lossy links and the reliable transport over them *)

let test_lossy_drops_statistically () =
  let sim = mk ~seed:21 () in
  let link : int Lossy.Link.t = Lossy.Link.create sim ~loss:0.5 () in
  for i = 1 to 1000 do
    Lossy.Link.send link ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  let d = Lossy.Link.delivered link in
  check "about half delivered" true (d > 400 && d < 600);
  check_int "sent counted" 1000 (Lossy.Link.sent link);
  check_int "drop + deliver = sent" 1000 (Lossy.Link.dropped link + d)

let test_lossy_zero_loss_delivers_all () =
  let sim = mk ~seed:22 () in
  let link : int Lossy.Link.t = Lossy.Link.create sim ~loss:0.0 () in
  for i = 1 to 50 do
    Lossy.Link.send link ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  check_int "all delivered" 50 (Lossy.Link.delivered link)

let test_lossy_bad_loss_rejected () =
  let sim = mk ~seed:23 () in
  check "loss = 1 rejected" true
    (try
       ignore (Lossy.Link.create sim ~loss:1.0 () : int Lossy.Link.t);
       false
     with Invalid_argument _ -> true)

let test_transport_reliable_over_heavy_loss () =
  let sim = Sim.create ~horizon:500.0 ~n:5 ~t:2 ~seed:24 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.6 () in
  let got = ref [] in
  Lossy.Transport.on_deliver tr (fun ~src:_ ~dst m -> if dst = 1 then got := m :: !got);
  for i = 1 to 30 do
    Lossy.Transport.send tr ~src:0 ~dst:1 i
  done;
  let all_in () = List.length !got >= 30 in
  let o = Sim.run ~stop_when:all_in sim in
  check "stopped on completion" true (o.reason = Sim.Stopped);
  Alcotest.(check (list int)) "every message exactly once (60% loss)"
    (List.init 30 (fun i -> i + 1))
    (List.sort compare !got);
  check "retransmissions happened" true
    (Trace.counter (Sim.trace sim) "transport.link.sent" > 60)

let test_transport_acks_clear_pending () =
  let sim = Sim.create ~horizon:500.0 ~n:5 ~t:2 ~seed:25 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.3 () in
  Lossy.Transport.send tr ~src:0 ~dst:1 7;
  Lossy.Transport.send tr ~src:0 ~dst:2 8;
  ignore (Sim.run ~stop_when:(fun () -> Lossy.Transport.pending tr 0 = 0) sim);
  check_int "nothing pending" 0 (Lossy.Transport.pending tr 0)

let test_transport_sender_crash_stops_retransmission () =
  let sim = Sim.create ~horizon:100.0 ~n:5 ~t:2 ~seed:26 () in
  Sim.install_crashes sim [ (0, 5.0) ];
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.99 () in
  ignore tr;
  (* With 99% loss the first copies almost surely vanish; after the crash
     nobody retransmits, so the message may never arrive — and the run must
     still terminate cleanly at the horizon. *)
  Lossy.Transport.send tr ~src:0 ~dst:1 1;
  let o = Sim.run sim in
  check "run ends" true (o.reason = Sim.Horizon || o.reason = Sim.Quiescent)

let test_transport_no_duplicates_in_callbacks () =
  let sim = Sim.create ~horizon:500.0 ~n:5 ~t:2 ~seed:27 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.5 () in
  let count = ref 0 in
  Lossy.Transport.on_deliver tr (fun ~src:_ ~dst:_ _ -> incr count);
  for i = 1 to 10 do
    Lossy.Transport.send tr ~src:2 ~dst:3 i
  done;
  ignore (Sim.run ~stop_when:(fun () -> !count >= 10 && Lossy.Transport.pending tr 2 = 0) sim);
  check_int "exactly one callback per message" 10 !count

(* Backoff policy *)

let test_backoff_interval_capped () =
  let rng = Rng.create 6 in
  let prev = ref 0.0 in
  for attempt = 0 to 20 do
    let v =
      Delay.backoff_interval ~base:1.0 ~factor:2.0 ~cap:8.0 ~jitter:0.0 ~rng ~attempt
    in
    check "within cap" true (v <= 8.0 +. 1e-9);
    check "monotone until cap" true (v >= !prev || v >= 8.0 -. 1e-9);
    prev := v
  done;
  for attempt = 0 to 10 do
    let v =
      Delay.backoff_interval ~base:1.0 ~factor:2.0 ~cap:8.0 ~jitter:0.3 ~rng ~attempt
    in
    check "positive under jitter" true (v > 0.0)
  done

let test_transport_backoff_metrics () =
  let sim = Sim.create ~horizon:2000.0 ~n:3 ~t:1 ~seed:26 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.5 () in
  let delivered = ref 0 in
  Lossy.Transport.on_deliver tr (fun ~src:_ ~dst:_ _ -> incr delivered);
  for i = 1 to 20 do
    Lossy.Transport.send tr ~src:0 ~dst:1 i
  done;
  ignore (Sim.run ~stop_when:(fun () -> Lossy.Transport.pending tr 0 = 0) sim);
  let counter = Trace.counter (Sim.trace sim) in
  check_int "all delivered" 20 !delivered;
  check "retransmits recorded" true (counter "net.retransmits" > 0);
  check "backoff resets recorded" true (counter "net.backoff_resets" > 0)

(* qcheck: a sender crashing mid-staggered-broadcast reaches exactly a
   prefix of the destination order — and the reliable broadcast's echo
   relay masks exactly this partiality (all correct or none). *)

let gen_partial_broadcast =
  QCheck.make
    ~print:(fun (seed, n, step10, ct10) ->
      Printf.sprintf "seed=%d n=%d step=%.1f crash_at=%.1f" seed n
        (float_of_int step10 /. 10.0)
        (float_of_int ct10 /. 10.0))
    QCheck.Gen.(
      quad (int_range 1 5000) (int_range 3 9) (int_range 1 10) (int_range 0 40))

let qcheck_staggered_prefix =
  QCheck.Test.make
    ~name:"crash mid-staggered broadcast reaches exactly a prefix" ~count:60
    gen_partial_broadcast
    (fun (seed, n, step10, ct10) ->
      let step = float_of_int step10 /. 10.0
      and ct = float_of_int ct10 /. 10.0 in
      let sim = Sim.create ~horizon:100.0 ~n ~t:1 ~seed () in
      Sim.install_crashes sim [ (0, ct) ];
      let net : int Net.t = Net.create sim ~delay:(Delay.Constant 0.05) () in
      let received = received net in
      Net.broadcast_staggered net ~src:0 ~step 99;
      ignore (Sim.run sim);
      (* Only the surviving destinations witness the prefix property —
         p0's own copy can be dropped by its crash. *)
      let live = List.init (n - 1) (fun i -> i + 1) in
      let got = List.map (fun i -> received i <> []) live in
      let rec is_prefix = function
        | true :: rest -> is_prefix rest
        | rest -> List.for_all not rest
      in
      is_prefix got)

let qcheck_rbcast_masks_partial =
  QCheck.Test.make
    ~name:"rbcast masks crash-interrupted partial broadcast" ~count:40
    gen_partial_broadcast
    (fun (seed, n, step10, ct10) ->
      let step = float_of_int step10 /. 10.0
      and ct = float_of_int ct10 /. 10.0 in
      let sim = Sim.create ~horizon:200.0 ~n ~t:1 ~seed () in
      Sim.install_crashes sim [ (0, ct) ];
      let rb : int Rbcast.t =
        Rbcast.create sim ~delay:(Delay.Constant 0.05) ~stagger:step ()
      in
      let delivered = rdelivered rb in
      Rbcast.broadcast rb ~src:0 42;
      ignore (Sim.run sim);
      let correct = List.init (n - 1) (fun i -> i + 1) in
      let cnt = List.length (List.filter (fun i -> delivered i <> []) correct) in
      cnt = 0 || cnt = List.length correct)

let () =
  Alcotest.run "net"
    [
      ( "delay",
        [
          Alcotest.test_case "constant" `Quick test_delay_constant;
          Alcotest.test_case "uniform range" `Quick test_delay_uniform_range;
          Alcotest.test_case "exponential" `Quick test_delay_exponential_nonneg;
          Alcotest.test_case "fn adversary" `Quick test_delay_fn_adversary;
          Alcotest.test_case "clamped" `Quick test_delay_clamped;
        ] );
      ( "channels",
        [
          Alcotest.test_case "send delivers" `Quick test_send_delivers;
          Alcotest.test_case "no loss no dup" `Quick test_no_loss_no_dup;
          Alcotest.test_case "non-fifo" `Quick test_non_fifo_possible;
          Alcotest.test_case "dead sender" `Quick test_send_from_crashed_dropped;
          Alcotest.test_case "dead receiver" `Quick test_send_to_crashed_dropped;
          Alcotest.test_case "in-flight survives" `Quick test_in_flight_survives_sender_crash;
          Alcotest.test_case "send_at" `Quick test_send_at_adversarial;
          Alcotest.test_case "broadcast" `Quick test_broadcast_reaches_all;
          Alcotest.test_case "staggered partial" `Quick test_broadcast_staggered_partial_on_crash;
          Alcotest.test_case "on_deliver" `Quick test_on_deliver_callbacks;
          Alcotest.test_case "retain:false" `Quick test_retain_false_empty_inbox;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "keyed index" `Quick test_keyed_index_matches_filters;
          Alcotest.test_case "keyed w/o retain" `Quick test_keyed_index_with_retain_false;
          Alcotest.test_case "keyed_drop retires" `Quick test_keyed_drop_retires;
          Alcotest.test_case "handler order" `Quick test_handlers_run_in_registration_order;
          Alcotest.test_case "delivery signals cond" `Quick test_delivery_signals_cond;
          Alcotest.test_case "delivery paths" `Quick test_delivery_paths;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
            qcheck_keyed_index_model;
          Alcotest.test_case "round allocation" `Quick test_broadcast_round_allocation;
        ] );
      ( "rbcast",
        [
          Alcotest.test_case "basic delivery" `Quick test_rb_basic_delivery;
          Alcotest.test_case "integrity" `Quick test_rb_integrity_no_duplicates;
          Alcotest.test_case "termination under crash" `Quick test_rb_termination_under_origin_crash;
          Alcotest.test_case "unreached = silent" `Quick test_rb_all_or_nothing_when_unreached;
          Alcotest.test_case "validity" `Quick test_rb_validity_no_spurious;
          Alcotest.test_case "uniform delivery" `Quick test_rb_agreement_same_set_everywhere;
          Alcotest.test_case "callbacks" `Quick test_rb_on_deliver_callback;
          Alcotest.test_case "cond on R-delivery" `Quick test_rb_cond_signalled_on_rdelivery;
          Alcotest.test_case "handler order" `Quick test_rb_handlers_registration_order;
          Alcotest.test_case "order can differ" `Quick test_rb_delivery_order_can_differ;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "statistical drops" `Quick test_lossy_drops_statistically;
          Alcotest.test_case "zero loss" `Quick test_lossy_zero_loss_delivers_all;
          Alcotest.test_case "bad loss" `Quick test_lossy_bad_loss_rejected;
          Alcotest.test_case "reliable over 60% loss" `Quick test_transport_reliable_over_heavy_loss;
          Alcotest.test_case "acks clear pending" `Quick test_transport_acks_clear_pending;
          Alcotest.test_case "sender crash" `Quick test_transport_sender_crash_stops_retransmission;
          Alcotest.test_case "no duplicate callbacks" `Quick test_transport_no_duplicates_in_callbacks;
          Alcotest.test_case "backoff interval capped" `Quick test_backoff_interval_capped;
          Alcotest.test_case "backoff metrics" `Quick test_transport_backoff_metrics;
        ] );
      ( "partial-broadcast",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]))
          [ qcheck_staggered_prefix; qcheck_rbcast_masks_partial ] );
    ]
