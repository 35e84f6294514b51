(** Artifact version stamp: schema version + code fingerprint.

    Every [_results/*.json] artifact (campaign artifacts, failure triage
    records, counterexamples, trace exports) embeds these two fields so
    a stale artifact — produced by a different schema or a different
    build of the code — is detectable ([fdkit trace --check] warns on a
    fingerprint mismatch).

    The fingerprint value is owned by [Setagree_core.Fingerprint], which
    calls {!set_fingerprint} at startup ([Fingerprint.install]); this
    module is only the process-wide cell, placed in [Setagree_util] so
    layers below core can read it without a dependency cycle.  Until
    installed, the fingerprint reads ["unstamped"]. *)

val schema_version : int
(** Bumped when the shape of the JSON artifacts changes. *)

val set_fingerprint : string -> unit
val fingerprint : unit -> string

val fields : unit -> (string * Json.t) list
(** [[("schema_version", ...); ("code_fingerprint", ...)]] — prepend to
    artifact objects. *)
