(** Whole-system assembly: a TROPIC deployment inside one simulation.

    Builds the coordination ensemble, bootstraps the initial logical tree
    as checkpoint 0, starts the controller replica group and the workers,
    and gives harness code a client-side API: submit orchestration
    requests, await their outcome, send operator controls, and inject
    controller failures. *)

type mode =
  | Full                   (** workers drive the simulated devices *)
  | Logical_only of float  (** paper §5; per-txn worker stand-in delay *)

type spec = {
  controllers : int;
  workers : int;
  shards : int;
      (** partitions of the resource tree, each with its own coordination
          ensemble, controller replica group and worker pool; device roots
          are assigned round-robin.  1 (the default) is the pre-sharding
          platform, laid out bit-identically *)
  mode : mode;
  coord_replicas : int;
  coord_config : Coord.Types.config;
  controller_config : Controller.config;
  controller_session_timeout : float;
      (** failure-detection time for controller fail-over (§6.4) *)
  submit_clients : int;  (** client sessions the harness submits through *)
  client_slots : int;    (** coordination-service session slots *)
  persist_clients : int;
      (** no effect; kept so existing specs still compile.  A controller
          writes through its own session only: one atomic multi per input
          burst, scheduler pass or flush. *)
  worker_retry : Physical.retry_policy;
      (** per-action robustness policy every worker executes under *)
  trace : Trace.t option;
      (** span recorder shared by every controller and worker (including
          supervisor restarts); [None] disables tracing *)
}

val default_spec : spec

type t

(** [create spec env ~initial_tree ~devices sim] — asynchronous: bootstrap,
    elections and recovery happen as the simulation runs. *)
val create :
  spec ->
  Dsl.env ->
  initial_tree:Data.Tree.t ->
  devices:Devices.Device.t list ->
  Des.Sim.t ->
  t

val sim : t -> Des.Sim.t
val spec : t -> spec

(** {1 Client API (call from inside a process)} *)

(** Enqueue an orchestration request; returns the transaction id. *)
val submit : t -> proc:string -> args:Data.Value.t list -> int

(** Block until the transaction reaches a terminal state. *)
val await : t -> int -> Txn.state

(** [submit] + [await]. *)
val run_txn : t -> proc:string -> args:Data.Value.t list -> Txn.state

(** Submit every request of the batch, then await them all — the requests
    are in flight together, so independent transactions of a plan wave can
    be scheduled concurrently.  Returns [(txn_id, terminal_state)] in
    batch order. *)
val submit_batch :
  t -> (string * Data.Value.t list) list -> (int * Txn.state) list

(** Current state from the persisted record, if any. *)
val txn_state : t -> int -> Txn.state option

(** Operator controls, routed through inputQ like any request. *)
val signal : t -> int -> Proto.signal -> unit

val reload : t -> Data.Path.t -> unit
val repair : t -> Data.Path.t -> unit

(** {1 Introspection and fault injection}

    Controllers and workers live in flat shard-major arrays: shard [s]'s
    replica group is slots [s*n .. s*n + n-1]. *)

val controllers : t -> Controller.t array
val workers : t -> Worker.t array
val shard_count : t -> int

(** Leader of shard 0 (the historical accessor). *)
val leader_controller : t -> Controller.t option

(** Block until shard 0 has a leader; returns it. *)
val await_leader_controller : t -> Controller.t

(** Current leader of shard [sid], and its flat slot index. *)
val shard_leader : t -> int -> Controller.t option

(** Accumulated counters of shard [sid]'s controller instances retired by
    {!restart_controller} — add to the current leader's
    {!Controller.stats} for fail-over-proof cumulative totals.  Latency
    recorders in the result are always empty. *)
val shard_retired_stats : t -> int -> Controller.stats

val shard_leader_index : t -> int -> int option

(** Owning shard of a resource path (pure function of the assignment). *)
val shard_of_path : t -> Data.Path.t -> int

(** Block until shard [sid] has a leader; returns it. *)
val await_shard_leader : t -> int -> Controller.t

(** Logical tree of shard 0's leader.  @raise Failure if none leads. *)
val logical_tree : t -> Data.Tree.t

(** Platform-wide logical tree: every shard leader's owned subtrees
    grafted over shard 0's view.  Blocks until each shard has a leader. *)
val composite_tree : t -> Data.Tree.t

(** Crash controller [i] (process death + session loss). *)
val kill_controller : t -> int -> unit

(** Restart slot [i] after {!kill_controller}: a fresh controller instance
    (new coordination session) under the same name, which re-joins the
    election and recovers.  Each restart consumes one client slot. *)
val restart_controller : t -> int -> unit

(** Crash worker [i] (process death + session loss: its ephemeral
    executing marker disappears, any in-flight execution is abandoned). *)
val kill_worker : t -> int -> unit

(** Restart slot [i] after {!kill_worker}: a fresh worker instance (new
    coordination session) under the same name.  Each restart consumes one
    client slot. *)
val restart_worker : t -> int -> unit

(** Flat index of shard 0's leading controller, if any. *)
val leader_index : t -> int option

(** Platform transaction-counter totals (every shard leader summed) —
    what the goal-state frontend reports next to its convergence result.
    All zeroes when no controller is leading. *)
type leader_stats = {
  ls_leader : int option;
  ls_committed : int;
  ls_aborted : int;
  ls_failed : int;
  ls_sheds : int;   (** admission-control sheds *)
  ls_todo : int;    (** scheduled-but-not-started transactions *)
}

val leader_stats : t -> leader_stats

(** Shard 0's (global) coordination ensemble. *)
val coord : t -> Coord.Ensemble.t

(** Shard [sid]'s coordination ensemble. *)
val coord_ensemble : t -> int -> Coord.Ensemble.t

(** Membership counters (joins, leaves, catch-ups, stale replication
    sessions rejected) summed across all shards' ensembles. *)
val membership_stats : t -> Coord.Types.membership_stats

(** Group-commit counters (flushes by trigger, batched commands, deferred
    and unsafe acks, batch-size histogram) summed across all shards'
    ensembles. *)
val group_commit_stats : t -> Coord.Types.group_stats

(** Sum of controller-CPU busy time (all controllers; only the leader
    accrues). *)
val controller_cpu_busy : t -> float

(** Summed busy time of each ensemble leader's op station. *)
val coord_io_busy : t -> float
