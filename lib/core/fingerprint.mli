(** Code fingerprints for artifact stamping and result-cache keys.

    Digests are MD5 over the (path, content-digest) pairs of library
    source files, located by walking up from the executable to the
    nearest [dune-project] (which under dune is [_build/default], where
    sources are copied).  When no source tree is reachable, falls back
    to a digest of the executable itself — coarser, never wrong. *)

val whole : unit -> string
(** One digest over every [lib/] source file (except [lib/rt], whose
    wall-clock backend is never cached).  Memoized. *)

val protocol_files : (string * string list) list
(** Per registered protocol, the protocol-specific sources its [install]
    reaches (e.g. [reduce] → reduce.ml, kset.ml, psi_to_omega.ml and the
    three wheels files); every other [lib/] source is shared substrate. *)

val protocol : string -> string
(** Digest over the shared substrate plus the named protocol's
    {!protocol_files} — so editing one protocol's code invalidates exactly
    the cache entries of the protocols that run it.  Unknown names digest
    the shared substrate alone.  Memoized per name. *)

val install : unit -> unit
(** [Stamp.set_fingerprint (whole ())] — call once at process start
    (fdkit main, bench main) so artifacts are stamped. *)
