(** The TROPIC controller (logical layer).

    Each instance joins the controller election; the winner serves
    transactions: it accepts requests from inputQ, schedules them (FIFO
    with defer-on-conflict, or the "aggressive" variant the paper leaves as
    future work), simulates them against the logical tree under constraint
    checks and multi-granularity locks, hands runnable transactions to the
    physical layer via phyQ, and finalizes them when results come back —
    rolling the logical layer back with undo actions on aborts.

    Every state transition that matters is persisted in the coordination
    service first, so when a controller dies, the next leader's {e
    idempotent recovery} — checkpoint + log replay, re-acquired locks,
    re-queued work — resumes every in-flight transaction without loss.

    The controller charges its logical work to a CPU {!Des.Station}
    (simulation is single-threaded, as in the paper's Python prototype);
    the station's busy time is what Figure 4 plots. *)

type config = {
  scheduling : [ `Fifo | `Aggressive ];
  cpu_per_txn : float;      (** base CPU seconds per simulated transaction *)
  cpu_per_action : float;   (** CPU seconds per simulated action *)
  checkpoint_every : int option;
      (** quiescent checkpoint period, in commits; [None] disables *)
  repair_rules : Recon.rule list;
  constraint_guard_locks : bool;
      (** the §3.1.3 R-lock-on-constrained-ancestor rule (ablation knob) *)
  repair_interval : float option;
      (** §4: how often the leader compares the two layers and repairs
          drift (also re-attempting quarantined subtrees); [None] leaves
          reconciliation to the operator *)
  watchdog : Watchdog.config;
      (** leader-side stall watchdog (TERM → KILL escalation on overdue
          in-flight transactions); {!Watchdog.disabled} by default *)
  health : Health.config;
      (** per-device EWMA health scoring and circuit breakers; tripped
          subtrees defer writers at admission, before lock acquisition.
          {!Health.disabled} by default *)
  admission : Health.admission;
      (** pending-queue watermarks: at [queue_high] new arrivals are shed
          with the fast [Txn.overload_reason] abort until the queue drains
          to [queue_low]; {!Health.no_admission} by default *)
  twopc_prepare_timeout : float;
      (** presumed-abort deadline: a coordinator stuck gathering votes (or
          a prepared participant stuck awaiting the decision) gives up
          after this many sim seconds *)
  twopc_decision_record : bool;
      (** ablation knob: when false, the durable 2PC decision record is
          never written or consulted — crashes mid-commit lose the
          decision and shards diverge *)
}

val default_config : config

(** Stored-procedure name of the shadow transactions a participant shard
    runs on behalf of a cross-shard coordinator. *)
val participant_proc : string

type stats = {
  mutable accepted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable deferrals : int;       (** lock-conflict deferments *)
  mutable violations : int;      (** constraint-violation aborts *)
  mutable repairs : int;         (** repair steps executed *)
  mutable reloads : int;
  mutable wakeups : int;
      (** blocked txns re-readied because a released lock unparked them *)
  mutable spurious_wakeups : int;
      (** wakeups whose re-attempt conflicted again (re-parked) *)
  mutable retries_saved : int;
      (** blocked txns a per-completion rescan would have re-attempted but
          wake-on-release left sleeping *)
  mutable wake_passes : int;
      (** batched [Sched.wake] deliveries: one deduplicated pass per
          scheduler round, however many releases fed it *)
  mutable terms : int;     (** TERM signals handled (operator + watchdog) *)
  mutable kills : int;     (** KILL signals handled (operator + watchdog) *)
  mutable auto_terms : int;  (** TERMs issued by the watchdog *)
  mutable auto_kills : int;  (** KILLs issued by the watchdog *)
  mutable exec_retries : int;
      (** physical-layer retry attempts, summed over worker reports *)
  mutable transient_failures : int;
      (** transient device errors observed by workers *)
  mutable timeouts : int;  (** per-action deadline expiries *)
  mutable sheds : int;
      (** arrivals aborted by admission control ([Txn.overload_reason]) *)
  mutable breaker_deferrals : int;
      (** admission attempts parked because a written subtree's breaker
          was open *)
  mutable breaker_trips : int;    (** → Tripped transitions *)
  mutable breaker_probes : int;   (** canary transactions dispatched *)
  mutable breaker_closes : int;   (** canary successes re-closing a breaker *)
  mutable twopc_started : int;    (** cross-shard coordinations begun here *)
  mutable twopc_committed : int;  (** decision records created as Commit *)
  mutable twopc_aborted : int;    (** cross-shard coordinations aborted *)
  mutable twopc_prepares : int;   (** participant votes cast (ok = true) *)
  simulate_lat : Metrics.Cdf.t;
      (** per-attempt logical simulation + CPU-model time *)
  lock_wait_lat : Metrics.Cdf.t;
      (** park-to-reattempt time of lock-conflict deferments *)
  replay_lat : Metrics.Cdf.t;  (** worker-reported physical replay time *)
  undo_lat : Metrics.Cdf.t;
      (** worker-reported rollback time of aborted replays *)
}

(** One-line per-phase latency breakdown ("p50/p99" per phase, [n/a] for
    phases no transaction crossed), appended to experiment summaries. *)
val phase_summary : stats -> string

type t

(** [trace], when given, records a span tree per transaction (admission,
    scheduling, lock waits, simulation, watchdog/health escalations); pass
    the same recorder to the workers for replay/undo spans.

    [shard] scopes this controller to one shard of the resource tree
    (default {!Shard.singleton}: the whole tree, pre-sharding layout);
    [client] must then connect to that shard's coordination ensemble, and
    [gclient] to the global (shard 0) ensemble carrying the 2PC mailboxes
    and decision records (defaults to [client] — correct for shard 0 and
    for single-shard platforms). *)
val create :
  ?trace:Trace.t ->
  ?shard:Shard.t ->
  ?gclient:Coord.Client.t ->
  name:string ->
  client:Coord.Client.t ->
  env:Dsl.env ->
  config:config ->
  devices:Physical.device_lookup ->
  device_roots:Data.Path.t list ->
  sim:Des.Sim.t ->
  unit ->
  t

(** Spawn the controller process (election, recovery, main loop). *)
val start : t -> unit

(** Kill the controller process and close its coordination session — from
    the rest of the system's point of view, a crash. *)
val crash : t -> unit

val name : t -> string
val is_leader : t -> bool

(** The shard this controller serves, and its id. *)
val shard : t -> Shard.t

val shard_id : t -> int

(** Current logical tree (meaningful on the leader). *)
val tree : t -> Data.Tree.t

val stats : t -> stats

(** Zeroed counters with empty latency recorders — an accumulator for
    {!absorb_stats}. *)
val fresh_stats : unit -> stats

(** Snapshot of the integer counters that shares the latency recorders
    with [src]; safe to {!absorb_stats} into without touching the live
    record. *)
val copy_stats : stats -> stats

(** [absorb_stats ~into src] adds [src]'s integer counters into [into].
    Latency recorders are not merged (exact quantiles cannot be combined
    after the fact).  Lets transaction totals survive controller
    fail-overs: fold a retired instance's stats into an accumulator and
    add that to the current leader's. *)
val absorb_stats : into:stats -> stats -> unit

(** Scheduled-but-not-started transactions: ready + blocked (the
    refactored todoQ length). *)
val todo_length : t -> int

(** Transactions parked in the blocked table — 0 at quiescence. *)
val blocked_length : t -> int

val inflight : t -> int

(** Ids of the in-flight (Started) transactions, ascending. *)
val started_txns : t -> int list

(** Number of (path, txn) entries in the lock table — 0 at quiescence. *)
val lock_count : t -> int

(** Parked waiter registrations in the lock manager — tracks
    {!blocked_length}; 0 at quiescence. *)
val waiter_count : t -> int

(** Quarantined (inconsistent) subtree roots. *)
val quarantined : t -> Data.Path.t list

(** Cumulative CPU busy time (Fig. 4's y-axis numerator). *)
val cpu_busy_time : t -> float
