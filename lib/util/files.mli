(** File-system helpers shared by every artifact writer. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents ([mkdir -p]); a directory
    that already exists, or appears concurrently, is fine. *)
