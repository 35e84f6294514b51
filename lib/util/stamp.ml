(* Artifact stamping: every _results/*.json artifact carries the schema
   version and the code fingerprint that produced it, so stale artifacts
   are detectable (fdkit trace --check warns on mismatch) and the result
   cache can key on the same fingerprint.

   The fingerprint itself is computed by Setagree_core.Fingerprint (it
   knows the source layout); this module only holds the process-wide
   value so that layers below core (Runner, Export) can stamp their
   artifacts without a dependency cycle. *)

let schema_version = 2
let unstamped = "unstamped"
let fp = ref unstamped

let set_fingerprint s = fp := s
let fingerprint () = !fp

let fields () =
  [
    ("schema_version", Json.Int schema_version);
    ("code_fingerprint", Json.String !fp);
  ]
