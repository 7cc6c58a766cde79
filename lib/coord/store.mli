(** The replicated state machine: a flat, versioned key-value namespace with
    ZooKeeper-style ephemeral and sequential keys.

    Every replica applies committed log entries to its own copy; {!apply} is
    deterministic, so replicas stay identical.  Per-session request
    deduplication lives here too, making client retries exactly-once. *)

type t

(** [create ?members ()] — [members] is the boot-time ensemble
    configuration.  Every instance (boot replicas and later-added
    learners alike) must pass the {e same} canonical list: the member set
    is part of the replicated state, so replaying the log from different
    bases would diverge. *)
val create : ?members:int list -> unit -> t

(** Configuration as of the applied prefix (boot list plus every applied
    [Add_replica]/[Remove_replica]), sorted. *)
val members : t -> int list

(** [apply t cmd] executes one committed command.  Returns its result and
    the list of keys whose state changed (used by the leader to fire
    watches).  Duplicate [(session, req)] pairs return the cached result
    without re-executing.

    A [Multi] applies its ops in order; if one fails, the entries and the
    sequential counter are restored to their state before the command,
    no key is reported changed, and the result names the failing op.  Its
    changed keys are listed once each, so each fires its watches once. *)
val apply : t -> Types.cmd -> Types.op_result * string list

(** {1 Reads (not replicated)} *)

val get : t -> string -> (string * int) option

(** Direct children of [prefix]: keys of the form [prefix ^ "/" ^ seg] with
    no further separator, returned as full keys in lexicographic order. *)
val children : t -> string -> string list

(* Smallest direct child of [prefix], if any — O(log n). *)
val first_child : t -> string -> string option

(** Number of direct children of [prefix]. *)
val count_children : t -> string -> int

val exists : t -> string -> bool

(** Number of keys present. *)
val size : t -> int

(** Sessions currently owning at least one ephemeral key. *)
val ephemeral_owners : t -> int list

(** [parent key] is the prefix before the last ['/'], if any — the key a
    child-watch on which should fire when [key] changes. *)
val parent : string -> string option

(** {1 Snapshot codec (log compaction)}

    [apply] is deterministic, so every replica's store is identical at a
    given applied index; a serialized store therefore serves as a Raft-style
    snapshot: it captures entries, the sequential-name counter and the
    request-deduplication table. *)

val to_sexp : t -> Data.Sexp.t
val of_sexp : Data.Sexp.t -> (t, string) result
