(** Orchestration of a real-runtime execution: spawn one domain per
    process ({!Node}), join them, and judge what actually happened —
    agreement safety on the pooled decisions, FD-class membership on the
    recorded accrual histories, QoS on the same samples.

    The contrast with [Protocol.run] is deliberate: the simulator run
    checks against ground truth it owns; the runtime run has no shared
    ground truth beyond the crash plan the orchestrator injected, and
    every other judgement is reconstructed from what the nodes brought
    home — the same position a real deployment is in. *)

open Setagree_util
open Setagree_fd
open Setagree_core

type cfg = {
  transport : [ `Udp | `Chan ];
  timescale : float;  (** virtual units per wall second *)
  hb_period_s : float;
  horizon_s : float;  (** wall budget; 0 = per-protocol default *)
  linger_s : float;
  sample_every_s : float;
  accrual_window : int;
  accrual_threshold : float;
  accrual_min_samples : int;
  crash_at_s : float;  (** wall time of the first injected crash *)
  crash_spread_s : float;  (** gap between consecutive crashes *)
  detect_slack_s : float;  (** FD deadline = last crash + this slack *)
  qos_window_s : float;  (** window size of the {!Qos.windowed} series *)
}

val default_cfg : cfg
(** Udp transport, timescale 150, heartbeats every 20 ms, 8 s horizon
    (liveness protocols: trimmed inside), 1.5 s linger, 50 ms sampling,
    window 200 / threshold 2.0 / min 5 samples, first crash at 0.25 s,
    0.15 s spread, 0.8 s detection slack, 0.5 s QoS windows. *)

type result = {
  o_protocol : string;
  o_params : Protocol.params;
  o_crashes : (Pid.t * float) list;  (** planned wall-time crash schedule *)
  o_decisions : (Pid.t * int * int * float) list;  (** pooled, wall-stamped *)
  o_safety : Check.verdict;
      (** k-set safety + termination for deciding protocols (k from
          the protocol's {!Protocol.S.degree}, the one the simulator checks);
          vacuous pass for FD-transformation protocols *)
  o_fd : Check.verdict;
      (** {!Check.omega_z_history} on the accrual trusted histories
          (z = [params.z]) + {!Check.strong_completeness_history} on the
          suspected histories when the run had crashes *)
  o_qos : Qos.report;
  o_qos_windows : (float * Qos.report) list;
      (** the same QoS metrics re-evaluated per [qos_window_s] window —
          the time-series the telemetry plane renders, where the
          end-of-run report is one scalar *)
  o_phi : (Pid.t * Qos.phi_point list) list;
      (** per-node accrual phi series (ring-buffered, newest 512) *)
  o_metrics : (string * float) list;  (** [rt.*] totals + [qos.*] *)
  o_registry : Metrics.t;
  o_node_events : int;
  o_wall_s : float;
}

val ok : result -> bool
(** Both verdicts. *)

val run_protocol : Protocol.packed -> Protocol.params -> ?cfg:cfg -> unit -> result
(** Plan crashes from [params.crashes] (victims via the same seeded
    ["crash"] split the simulator uses; times remapped onto the wall
    schedule of [cfg]), spawn [params.n] domains, join, judge. *)

val fd_probe :
  n:int ->
  crashes:int ->
  seed:int ->
  ?cfg:cfg ->
  unit ->
  Qos.report * (string * float) list
(** Heartbeat-only deployment (no protocol): every node runs transport +
    accrual and samples its detector — the direct QoS measurement the
    bench sweeps over heartbeat periods.  Returns the report and the
    merged [rt.*]/[qos.*] metrics. *)

val pp_result : Format.formatter -> result -> unit
