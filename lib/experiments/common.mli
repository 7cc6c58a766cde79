(** Shared plumbing for experiment harnesses. *)

(** [run_scenario ?horizon sim body] spawns [body] as a process, drains the
    simulation (bounded by [horizon], default 36 000 s), and fails with the
    first recorded process crash, if any.
    @raise Failure if a process crashed or [body] did not finish. *)
val run_scenario : ?horizon:float -> Des.Sim.t -> (unit -> unit) -> unit

(** Wall-clock seconds spent evaluating [f], via [Unix.gettimeofday]. *)
val time_it : (unit -> 'a) -> 'a * float

(** Print a section header to stdout. *)
val section : string -> unit

(** TROPIC_BENCH_QUICK=1 shrinks the big experiments (documented per
    experiment). *)
val quick_mode : unit -> bool

(** Scheduler counters snapshotted from a platform's leader controller at
    the end of a run — the wake-on-release observability every experiment
    summary line carries. *)
type sched_counters = {
  sc_committed : int;
  sc_deferrals : int;  (** lock-conflict deferments *)
  sc_wakeups : int;  (** blocked txns re-readied by a lock release *)
  sc_spurious : int;  (** wakeups that conflicted again *)
  sc_retries_saved : int;  (** rescan attempts avoided *)
}

val zero_sched_counters : sched_counters

(** Leader's counters, or {!zero_sched_counters} when no controller leads
    (e.g. after an unhealed crash). *)
val sched_counters : Tropic.Platform.t -> sched_counters

(** One-line human summary: deferrals per committed txn + wakeup counters. *)
val sched_summary : sched_counters -> string

(** Robustness counters snapshotted from a platform's leader controller:
    physical retry/timeout activity and operator-signal traffic. *)
type robust_counters = {
  rc_retries : int;  (** physical retry attempts *)
  rc_transient : int;  (** transient device errors workers observed *)
  rc_timeouts : int;  (** per-action deadline expiries *)
  rc_terms : int;  (** TERM signals handled *)
  rc_kills : int;  (** KILL signals handled *)
  rc_auto_terms : int;  (** TERMs issued by the watchdog *)
  rc_auto_kills : int;  (** KILLs issued by the watchdog *)
  rc_sheds : int;  (** arrivals shed by admission control *)
  rc_breaker_deferrals : int;  (** txns parked by an open breaker *)
  rc_breaker_trips : int;  (** breaker → Tripped transitions *)
  rc_breaker_probes : int;  (** canary transactions dispatched *)
  rc_breaker_closes : int;  (** canaries that re-closed a breaker *)
}

val zero_robust_counters : robust_counters

(** Leader's counters, or {!zero_robust_counters} when no controller
    leads. *)
val robust_counters : Tropic.Platform.t -> robust_counters

(** One-line human summary of retry/timeout/signal activity. *)
val robust_summary : robust_counters -> string

(** Leader's per-phase latency breakdown ({!Tropic.Controller.phase_summary});
    phases with no samples print [n/a]. *)
val phase_summary : Tropic.Platform.t -> string

(** One-line summary of the coordination-membership counters summed over
    every shard's ensemble (joins, leaves, catch-ups, stale replication
    sessions rejected).  All zeroes on runs with no membership churn. *)
val membership_summary : Tropic.Platform.t -> string

(** One-line summary of the group-commit batching counters summed over
    every shard's ensemble: flushes by trigger, mean/max batch size, ack
    discipline and the batch-size histogram.  All zeroes with
    [group_commit:false]. *)
val group_summary : Tropic.Platform.t -> string

(** Write [tracer]'s Chrome trace-event JSON to [file] and return the
    lifecycle-invariant violations {!Trace.Check.validate} found (ideally
    none). *)
val dump_trace : Trace.t -> file:string -> Trace.Check.error list
