(* Tests for the real-runtime backend (Setagree_rt): frame codec under
   adversarial packetization (split, coalesced, duplicated, dirty
   datagrams), accrual-detector monotonicity, and the sim-vs-rt
   differential — every registered protocol, run on the simulator and on
   real domains over the in-process channel transport with identical
   input vectors, must uphold the same agreement contract. *)

open Setagree_util
open Setagree_core
module Check = Setagree_fd.Check
module Frame = Setagree_rt.Frame
module Accrual = Setagree_rt.Accrual
module Rt_run = Setagree_rt.Run

let check = Alcotest.(check bool)

(* --- frame generators --- *)

let gen_kind =
  QCheck.Gen.(
    frequency
      [
        (1, return Frame.Heartbeat);
        ( 3,
          let* tag =
            map (fun l -> "tag." ^ String.concat "" (List.map (String.make 1) l))
              (list_size (int_range 0 12) (char_range 'a' 'z'))
          in
          let* body = map Bytes.of_string (string_size (int_range 0 200)) in
          return (Frame.Payload { tag; body }) );
      ])

let gen_frame =
  QCheck.Gen.(
    let* src = int_range 0 9 in
    let* dst = int_range 0 9 in
    let* seq = int_range 0 100_000 in
    let* kind = gen_kind in
    return { Frame.src; dst; seq; kind })

let pp_frame (f : Frame.t) =
  Printf.sprintf "{src=%d;dst=%d;seq=%d;%s}" f.Frame.src f.Frame.dst f.Frame.seq
    (match f.Frame.kind with
    | Frame.Heartbeat -> "hb"
    | Frame.Payload { tag; body } ->
        Printf.sprintf "payload %s (%dB)" tag (Bytes.length body))

let arb_frame = QCheck.make ~print:pp_frame gen_frame
let arb_frames = QCheck.make ~print:(fun l -> String.concat " " (List.map pp_frame l))
    QCheck.Gen.(list_size (int_range 1 10) gen_frame)

(* --- framing round-trips --- *)

let qcheck_packet_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Frame: decode_packet (encode f) = [f]"
    arb_frame (fun f ->
      let b = Frame.encode f in
      Frame.decode_packet b ~len:(Bytes.length b) = [ f ])

let concat_encodings frames =
  let bufs = List.map Frame.encode frames in
  let total = List.fold_left (fun acc b -> acc + Bytes.length b) 0 bufs in
  let out = Bytes.create total in
  let _ =
    List.fold_left
      (fun off b ->
        Bytes.blit b 0 out off (Bytes.length b);
        off + Bytes.length b)
      0 bufs
  in
  out

let qcheck_coalesced =
  QCheck.Test.make ~count:300 ~name:"Frame: coalesced datagram decodes in order"
    arb_frames (fun frames ->
      let b = concat_encodings frames in
      Frame.decode_packet b ~len:(Bytes.length b) = frames)

(* Feed the byte stream to the decoder in arbitrary chunk sizes: every
   frame must come out exactly once, in order, regardless of splits. *)
let qcheck_split_stream =
  QCheck.Test.make ~count:300 ~name:"Frame: split/coalesced stream reassembles"
    QCheck.(pair arb_frames (QCheck.make QCheck.Gen.(int_range 1 7)))
    (fun (frames, step) ->
      let b = concat_encodings frames in
      let dec = Frame.Decoder.create () in
      let out = ref [] in
      let pos = ref 0 in
      while !pos < Bytes.length b do
        let len = min step (Bytes.length b - !pos) in
        out := !out @ Frame.Decoder.feed dec ~off:!pos ~len b;
        pos := !pos + len
      done;
      !out = frames && Frame.Decoder.pending dec = 0)

let qcheck_duplicated =
  QCheck.Test.make ~count:200 ~name:"Frame: duplicated datagram decodes twice"
    arb_frame (fun f ->
      let b = Frame.encode f in
      let dec = Frame.Decoder.create () in
      let first = Frame.Decoder.feed dec b in
      let second = Frame.Decoder.feed dec b in
      (* The codec surfaces both copies; suppression by (src, seq) is the
         transport's job, tested through the differential below. *)
      first = [ f ] && second = [ f ])

let test_resync () =
  let f = { Frame.src = 1; dst = 2; seq = 7; kind = Frame.Heartbeat } in
  let b = Frame.encode f in
  let dirty = Bytes.cat (Bytes.make 5 'x') b in
  check "garbage skipped, frame recovered" true
    (Frame.decode_packet dirty ~len:(Bytes.length dirty) = [ f ]);
  let dec = Frame.Decoder.create () in
  let got = Frame.Decoder.feed dec dirty in
  check "decoder resyncs" true (got = [ f ]);
  check "skipped bytes counted" true (Frame.Decoder.skipped dec = 5)

(* --- accrual monotonicity --- *)

let warm_accrual gaps =
  let acc = Accrual.create ~rng:(Rng.create 7) ~self:0 ~n:3 () in
  let now = ref 0.0 in
  List.iter
    (fun g ->
      now := !now +. g;
      Accrual.heartbeat acc 1 ~now:!now)
    gaps;
  (acc, !now)

let qcheck_phi_monotone =
  QCheck.Test.make ~count:200
    ~name:"Accrual: suspicion nondecreasing during silence, reset on heartbeat"
    QCheck.(
      make
        QCheck.Gen.(
          list_size (int_range 6 40)
            (map (fun k -> 0.01 +. (float_of_int k /. 100.0)) (int_range 0 50))))
    (fun gaps ->
      let acc, t_last = warm_accrual gaps in
      (* probe at increasing silences: phi must never decrease *)
      let probes = List.init 20 (fun i -> t_last +. (0.05 *. float_of_int (i + 1))) in
      let phis = List.map (fun tm -> Accrual.phi acc 1 ~now:tm) probes in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      (* a long-enough silence is suspected; the next heartbeat resets *)
      let deep = t_last +. 100.0 in
      let was_suspected = Accrual.suspects acc 1 ~now:deep in
      Accrual.heartbeat acc 1 ~now:deep;
      let reset = not (Accrual.suspects acc 1 ~now:(deep +. 0.001)) in
      monotone phis && was_suspected && reset)

let test_accrual_surfaces () =
  let acc, t_last = warm_accrual (List.init 10 (fun _ -> 0.1)) in
  (* peer 2 never spoke: the bootstrap timeout keeps it suspected once
     expired, so trusted_z never proposes it after warmup *)
  let deep = t_last +. 50.0 in
  check "silent peer suspected" true (Accrual.suspects acc 2 ~now:deep);
  check "trusted excludes suspected" true
    (Pidset.equal (Accrual.trusted acc ~z:1 ~now:deep) (Pidset.add 0 Pidset.empty));
  (* query surface: small regions are trivially alive-or-dead-agnostic,
     the meaningful window (t-y < |X| <= t) consults suspicion *)
  let x12 = Pidset.add 1 (Pidset.add 2 Pidset.empty) in
  check "triviality: |X| <= t-y always true" true
    (Accrual.query acc ~t_bound:2 ~y:0 x12 ~now:(t_last +. 100.0));
  check "dead region acknowledged" true
    (Accrual.query acc ~t_bound:2 ~y:1 x12 ~now:(t_last +. 100.0));
  Accrual.heartbeat acc 1 ~now:(t_last +. 100.0);
  check "live member denies the region" false
    (Accrual.query acc ~t_bound:2 ~y:1 x12 ~now:(t_last +. 100.001))

(* --- sim vs rt differential --- *)

let rt_cfg =
  {
    Rt_run.default_cfg with
    Rt_run.transport = `Chan;
    hb_period_s = 0.01;
    horizon_s = 1.5;
    (* No crashes in the differential, so the FD deadline is just the
       slack; linger longer than that so every decider's history extends
       past the deadline with margin. *)
    linger_s = 0.8;
    detect_slack_s = 0.5;
    (* The default phi threshold (2.0) suspects on any gap rarer than
       ~1e-2 — on a loaded single-core box, domain scheduling stalls
       cross that constantly and a correct peer's trusted set blips
       after the deadline.  With no crashes in this differential a
       higher bar only suppresses those false positives; it cannot hide
       a real detection failure. *)
    accrual_threshold = 6.0;
  }

let differential name =
  let pk =
    match Protocol.find name with
    | Some pk -> pk
    | None -> Alcotest.failf "protocol %s not registered" name
  in
  let p =
    {
      Protocol.default with
      Protocol.n = 4;
      t = 1;
      seed = 5;
      z = 1;
      k = 1;
      (* wheels admissibility at t=1 needs x + y <= t + 1 *)
      x = 1;
      y = 1;
      (* perfect oracle behavior from the start: with no crashes both
         substrates then converge on the same leader (pid 0) and the
         pooled decisions must agree, not just each run internally *)
      gst = 0.0;
      crashes = Setagree_dsys.Crash.No_crashes;
      backend = "rt-chan";
    }
  in
  (* same input vector on both substrates *)
  let proposals = Protocol.proposals_of p in
  let sim_report = Protocol.run pk { p with Protocol.backend = "sim" } in
  check (name ^ ": sim verdict") true (Check.verdict_ok sim_report.Protocol.rp_verdict);
  let rt = Rt_run.run_protocol pk p ~cfg:rt_cfg () in
  check (name ^ ": rt safety") true rt.Rt_run.o_safety.Check.ok;
  check (name ^ ": rt fd history") true rt.Rt_run.o_fd.Check.ok;
  (* deciding protocols: both decision sets obey the same contract *)
  let sim_decisions =
    Setagree_dsys.Trace.decisions (Setagree_dsys.Sim.trace sim_report.Protocol.rp_sim)
  in
  let (module P : Protocol.S) = pk in
  match P.degree p with
  | None -> ()
  | Some k ->
      check (name ^ ": rt decided") true (rt.Rt_run.o_decisions <> []);
      check (name ^ ": sim decided") true (sim_decisions <> []);
      let notes =
        Protocol.kset_safety ~k ~proposals
          (sim_decisions @ rt.Rt_run.o_decisions |> List.sort_uniq compare)
        |> List.filter (fun note ->
               (* pooling both substrates legitimately repeats pids; only
                  agreement/validity notes count across substrates *)
               not (String.length note >= 6 && String.sub note 0 6 = "double"))
      in
      if notes <> [] then
        Alcotest.failf "%s: cross-substrate safety: %s" name
          (String.concat "; " notes)

(* The agreement degree of every registered protocol and variant
   ([S.degree]: the one the simulator's check holds decisions to, and
   the one the rt backend checks): at t = 3, x = 2, y = 1, z = 2, k = 1
   each reduce variant's Ω_z width, impl's kset over Ω_2, nothing for
   the detector-only stacks.  A registered pair missing from the table
   fails, so a new protocol or variant must state its degree. *)
let test_agreement_degrees () =
  let p =
    { Protocol.default with Protocol.n = 8; t = 3; x = 2; y = 1; z = 2; k = 1 }
  in
  let expected =
    [
      (("kset", "es"), Some 1);
      (("consensus_s", "es"), Some 1);
      (("wheels", "es"), None);
      (("psi", "es"), None);
      (("reduce", "es"), Some 3);
      (("reduce", "phi"), Some 3);
      (("reduce", "psi"), Some 3);
      (("reduce", "wheels"), Some 2);
      (("strengthen", "es"), None);
      (("strengthen", "s"), None);
      (("strengthen", "es-mp"), None);
      (("strengthen", "s-mp"), None);
      (("impl", "es"), None);
      (("impl", "omega"), None);
      (("impl", "phi"), None);
      (("impl", "kset"), Some 2);
    ]
  in
  List.iter
    (fun (name, (module P : Protocol.S)) ->
      List.iter
        (fun variant ->
          let label = name ^ "/" ^ variant in
          match List.assoc_opt (name, variant) expected with
          | None -> Alcotest.failf "%s: no expected agreement degree listed" label
          | Some k ->
              Alcotest.(check (option int))
                label k
                (P.degree { p with Protocol.variant }))
        (if P.variants = [] then [ p.Protocol.variant ] else P.variants))
    Protocol.registry

let differential_tests =
  List.map
    (fun name -> Alcotest.test_case ("sim-vs-rt " ^ name) `Slow (fun () -> differential name))
    (Protocol.names ())

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]) in
  Alcotest.run "rt"
    [
      ( "frame",
        List.map qt
          [ qcheck_packet_roundtrip; qcheck_coalesced; qcheck_split_stream; qcheck_duplicated ]
        @ [ Alcotest.test_case "resync after garbage" `Quick test_resync ] );
      ( "accrual",
        List.map qt [ qcheck_phi_monotone ]
        @ [ Alcotest.test_case "oracle surfaces" `Quick test_accrual_surfaces ] );
      ("degree", [ Alcotest.test_case "agreement per variant" `Quick test_agreement_degrees ]);
      ("differential", differential_tests);
    ]
