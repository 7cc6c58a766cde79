(** Physical-layer worker (paper §3.2).

    Workers compete for transactions on phyQ, replay each execution log
    against the devices (checking for TERM/KILL signals between actions)
    and report the outcome back to the controller through inputQ.

    In logical-only mode (paper §5) device calls are bypassed: the worker
    just models a small handling delay and reports success — the mode the
    performance evaluation (Figs. 4, 5) runs in. *)

type mode =
  | Full
  | Logical_only of float  (** stand-in handling delay per transaction *)

type t

(** [retry] (default {!Physical.no_retry}) is the per-action robustness
    policy applied to every log replayed by this worker.  [trace], when
    given, records a replay span (plus per-action/backoff/undo spans in
    [Full] mode) for every transaction this worker executes.  [ns] is the
    shard namespace whose queues this worker serves (default
    {!Proto.default_ns}); [client] must connect to that shard's
    coordination ensemble.  [ordinal] picks which of the queued items
    this worker tries to take; give each worker of a shard a different
    one, so idle workers do not all race for the same item. *)
val create :
  ?retry:Physical.retry_policy ->
  ?trace:Trace.t ->
  ?ns:string ->
  ordinal:int ->
  name:string ->
  client:Coord.Client.t ->
  mode:mode ->
  devices:Physical.device_lookup ->
  sim:Des.Sim.t ->
  unit ->
  t

val start : t -> unit
val crash : t -> unit
val name : t -> string

(** Transactions physically executed so far, by outcome. *)
val executed : t -> int

val committed : t -> int

(** Take attempts so far: one atomic claim-and-dequeue each, won or
    lost. *)
val take_attempts : t -> int
