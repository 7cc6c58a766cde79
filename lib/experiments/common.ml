let run_scenario ?(horizon = 36_000.) sim body =
  let finished = ref false in
  ignore
    (Des.Proc.spawn ~name:"experiment" sim (fun () ->
         body ();
         finished := true));
  ignore (Des.Sim.run ~until:horizon sim);
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     failwith
       (Printf.sprintf "process %s crashed: %s" who (Printexc.to_string exn)));
  if not !finished then failwith "experiment did not finish before horizon"

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let quick_mode () =
  match Sys.getenv_opt "TROPIC_BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

type sched_counters = {
  sc_committed : int;
  sc_deferrals : int;
  sc_wakeups : int;
  sc_spurious : int;
  sc_retries_saved : int;
}

let zero_sched_counters =
  {
    sc_committed = 0;
    sc_deferrals = 0;
    sc_wakeups = 0;
    sc_spurious = 0;
    sc_retries_saved = 0;
  }

let sched_counters platform =
  match Tropic.Platform.leader_controller platform with
  | None -> zero_sched_counters
  | Some c ->
    let st = Tropic.Controller.stats c in
    {
      sc_committed = st.Tropic.Controller.committed;
      sc_deferrals = st.Tropic.Controller.deferrals;
      sc_wakeups = st.Tropic.Controller.wakeups;
      sc_spurious = st.Tropic.Controller.spurious_wakeups;
      sc_retries_saved = st.Tropic.Controller.retries_saved;
    }

type robust_counters = {
  rc_retries : int;
  rc_transient : int;
  rc_timeouts : int;
  rc_terms : int;
  rc_kills : int;
  rc_auto_terms : int;
  rc_auto_kills : int;
  rc_sheds : int;
  rc_breaker_deferrals : int;
  rc_breaker_trips : int;
  rc_breaker_probes : int;
  rc_breaker_closes : int;
}

let zero_robust_counters =
  {
    rc_retries = 0;
    rc_transient = 0;
    rc_timeouts = 0;
    rc_terms = 0;
    rc_kills = 0;
    rc_auto_terms = 0;
    rc_auto_kills = 0;
    rc_sheds = 0;
    rc_breaker_deferrals = 0;
    rc_breaker_trips = 0;
    rc_breaker_probes = 0;
    rc_breaker_closes = 0;
  }

let robust_counters platform =
  match Tropic.Platform.leader_controller platform with
  | None -> zero_robust_counters
  | Some c ->
    let st = Tropic.Controller.stats c in
    {
      rc_retries = st.Tropic.Controller.exec_retries;
      rc_transient = st.Tropic.Controller.transient_failures;
      rc_timeouts = st.Tropic.Controller.timeouts;
      rc_terms = st.Tropic.Controller.terms;
      rc_kills = st.Tropic.Controller.kills;
      rc_auto_terms = st.Tropic.Controller.auto_terms;
      rc_auto_kills = st.Tropic.Controller.auto_kills;
      rc_sheds = st.Tropic.Controller.sheds;
      rc_breaker_deferrals = st.Tropic.Controller.breaker_deferrals;
      rc_breaker_trips = st.Tropic.Controller.breaker_trips;
      rc_breaker_probes = st.Tropic.Controller.breaker_probes;
      rc_breaker_closes = st.Tropic.Controller.breaker_closes;
    }

let robust_summary c =
  Printf.sprintf
    "robust: retries %d (%d transient, %d timeouts), signals %d TERM / %d \
     KILL (watchdog %d/%d), shed %d, breaker %d trips / %d probes / %d \
     closes (%d deferred)"
    c.rc_retries c.rc_transient c.rc_timeouts c.rc_terms c.rc_kills
    c.rc_auto_terms c.rc_auto_kills c.rc_sheds c.rc_breaker_trips
    c.rc_breaker_probes c.rc_breaker_closes c.rc_breaker_deferrals

let membership_summary platform =
  let m = Tropic.Platform.membership_stats platform in
  Printf.sprintf
    "membership: %d joins / %d leaves / %d catchups, %d stale sessions \
     rejected"
    m.Coord.Types.joins m.Coord.Types.leaves m.Coord.Types.catchups
    m.Coord.Types.stale_sessions_rejected

(* Group-commit batching telemetry: flush counts by trigger, the mean and
   max flushed batch size, ack discipline, and the power-of-two batch-size
   histogram (bucket i covers sizes [2^i, 2^(i+1))). *)
let group_summary platform =
  let g = Tropic.Platform.group_commit_stats platform in
  let mean_batch =
    if g.Coord.Types.flushes = 0 then 0.
    else
      float_of_int g.Coord.Types.batched_cmds
      /. float_of_int g.Coord.Types.flushes
  in
  let hist =
    String.concat ","
      (Array.to_list (Array.map string_of_int g.Coord.Types.batch_hist))
  in
  Printf.sprintf
    "group-commit: %d flushes (%d full, %d timeout), %d cmds batched, mean \
     batch %.1f (max %d), acks %d deferred / %d unsafe, hist [%s]"
    g.Coord.Types.flushes g.Coord.Types.flush_full g.Coord.Types.flush_timeout
    g.Coord.Types.batched_cmds mean_batch g.Coord.Types.max_batch
    g.Coord.Types.acks_deferred g.Coord.Types.unsafe_acks hist

(* Per-phase p50/p99 breakdown from the leader's recorders; empty phases
   print n/a rather than a placeholder 0. *)
let phase_summary platform =
  match Tropic.Platform.leader_controller platform with
  | None ->
    "phases[p50/p99 s]: simulate n/a, lock-wait n/a, replay n/a, undo n/a"
  | Some c -> Tropic.Controller.phase_summary (Tropic.Controller.stats c)

(* Shared by the binaries' --trace flags: persist the Chrome-format trace
   and report any lifecycle-invariant violations the recorder saw. *)
let dump_trace tracer ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Trace.to_chrome_json tracer));
  Trace.Check.validate tracer

let sched_summary c =
  let per_commit =
    if c.sc_committed = 0 then 0.
    else float_of_int c.sc_deferrals /. float_of_int c.sc_committed
  in
  Printf.sprintf
    "sched: deferrals/commit %.3f (%d/%d), wakeups %d (%d spurious), retries saved %d"
    per_commit c.sc_deferrals c.sc_committed c.sc_wakeups c.sc_spurious
    c.sc_retries_saved
