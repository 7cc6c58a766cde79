(* TROPIC benchmark: runs one workload, prints every metric by name with
   its unit, checks the outputs, and ends with one JSON result line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Workloads: toggle-closed, hosting-open, failover (see spec.ml).  The
   workload is executed anew again and again, same seed, until
   [--seconds] of wall time have passed; host-time metrics are medians
   over those executions, virtual-time metrics and counts come from one
   execution (every execution must reproduce the same outcome digest).

   [--trace 0] reports the end-to-end metrics.  [--trace 1] alternates
   untraced and traced executions and reports the per-layer metrics,
   including the phase split of commit latency from the trace.

   Seed 1 is the default; seed 9001 is held out for validating a claimed
   change on inputs it was not tuned on. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n\
     (seed %d is the default; seed %d is held out for validating claims)\n"
    (String.concat "|" Spec.names) Spec.default_seed Spec.held_out_seed;
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref Spec.default_seed in
  let seconds = ref 10. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0. -> seconds := s
       | _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some workload -> { workload; seed = !seed; seconds = !seconds; trace = !trace }
  | None -> usage ()

(* ------------------------------------------------------------------ *)
(* Metrics of one execution *)

let committed_latencies (d : Drive.t) =
  Array.to_list d.Drive.replies
  |> List.filter_map (fun (r : Drive.reply) ->
         if Drive.classify r.Drive.state = Drive.Committed then
           Some (r.Drive.replied -. r.Drive.due_at)
         else None)
  |> Stats.cdf

let count pred (d : Drive.t) =
  Array.fold_left (fun n r -> if pred r then n + 1 else n) 0 d.Drive.replies

let committed d =
  count (fun r -> Drive.classify r.Drive.state = Drive.Committed) d

let errors d =
  count
    (fun r ->
      match Drive.classify r.Drive.state with
      | Drive.Errored _ -> true
      | Drive.Committed | Drive.Rejected -> false)
    d

let window (d : Drive.t) = d.Drive.load_end -. d.Drive.load_start

let end_to_end (d : Drive.t) ~wall_s ~setup_s ~live_heap_mb =
  let lat = committed_latencies d in
  [ m "commit_p50_s" "virtual_s" (Metrics.Cdf.quantile lat 0.5);
    m "commit_p99_s" "virtual_s" (Metrics.Cdf.quantile lat 0.99);
    m "txn_per_s" "txn/virtual_s"
      (Stats.ratio (float_of_int (committed d)) (window d));
    m "wall_s" "s" wall_s;
    m "setup_s" "s" setup_s;
    m "live_heap_mb" "MB" live_heap_mb ]

(* Request-level outcome metrics, workload-specific where noted. *)
let outcome_metrics (d : Drive.t) =
  let n = Array.length d.Drive.replies in
  let slo_misses =
    match d.Drive.spec.Spec.slo_s with
    | None -> 0
    | Some limit ->
      count
        (fun r ->
          match Drive.classify r.Drive.state with
          | Drive.Errored _ -> true
          | Drive.Committed | Drive.Rejected ->
            r.Drive.replied -. r.Drive.due_at > limit)
        d
  in
  let unavailable =
    List.map
      (fun (k : Drive.kill) ->
        let first =
          Array.fold_left
            (fun acc (r : Drive.reply) ->
              if Drive.classify r.Drive.state = Drive.Committed
                 && r.Drive.due_at >= k.Drive.killed_at
              then Float.min acc r.Drive.replied
              else acc)
            infinity d.Drive.replies
        in
        (k, first))
      d.Drive.kills
  in
  let gaps = List.map (fun ((k : Drive.kill), t) -> t -. k.Drive.killed_at) unavailable in
  [ m "slo_miss_ratio" "ratio" (Stats.per slo_misses n);
    m "error_ratio" "ratio" (Stats.per (errors d) n);
    m "unavailable_p50_s" "virtual_s" (Stats.median gaps);
    m "unavailable_max_s" "virtual_s" (List.fold_left Float.max 0. gaps);
    m "recovery.takeover_p50_s" "virtual_s"
      (Stats.median
         (List.map
            (fun (k : Drive.kill) -> k.Drive.takeover_at -. k.Drive.killed_at)
            d.Drive.kills));
    m "recovery.first_commit_p50_s" "virtual_s"
      (Stats.median
         (List.map (fun ((k : Drive.kill), t) -> t -. k.Drive.takeover_at)
            unavailable)) ]

(* Per-layer counts over the measured window of an untraced execution. *)
let layer_counts (d : Drive.t) ~events_per_wall_s =
  let b = d.Drive.before and a = d.Drive.after in
  let txns = committed d in
  let per_txn x = Stats.per x txns in
  let ctl f = f a.Drive.ctl - f b.Drive.ctl in
  let open Tropic.Controller in
  let window_all_shards = window d *. float_of_int d.Drive.shards in
  let flushes = a.Drive.flushes - b.Drive.flushes in
  let cross = ctl (fun s -> s.twopc_started) in
  [ m "des.events" "count" (float_of_int (a.Drive.events - b.Drive.events));
    m "des.events_per_txn" "events/txn" (per_txn (a.Drive.events - b.Drive.events));
    m "des.events_per_wall_s" "events/s" events_per_wall_s;
    m "des.msgs_per_txn" "msgs/txn" (per_txn (a.Drive.msgs - b.Drive.msgs));
    m "des.idle_events_per_virtual_s" "events/virtual_s" d.Drive.idle_events_per_s;
    m "gc.alloc_words_per_txn" "words/txn"
      (Stats.ratio (a.Drive.alloc_words -. b.Drive.alloc_words) (float_of_int txns));
    m "gc.major_collections" "count" (float_of_int (a.Drive.major_gcs - b.Drive.major_gcs));
    m "coord.cmds_per_txn" "cmds/txn" (per_txn (a.Drive.coord_cmds - b.Drive.coord_cmds));
    m "coord.flushes_per_txn" "flushes/txn" (per_txn flushes);
    m "coord.mean_batch" "cmds/flush" (Stats.per (a.Drive.batched - b.Drive.batched) flushes);
    m "coord.io_busy_ratio" "ratio"
      (Stats.ratio (a.Drive.io_busy -. b.Drive.io_busy) window_all_shards);
    m "coord.elections" "count" (float_of_int d.Drive.coord_elections);
    m "coord.store_nodes_per_txn" "nodes/txn"
      (per_txn (a.Drive.store_nodes - b.Drive.store_nodes));
    m "coord.log_entries" "count" (float_of_int d.Drive.coord_log_entries);
    m "controller.cpu_busy_ratio" "ratio"
      (Stats.ratio (a.Drive.cpu_busy -. b.Drive.cpu_busy) window_all_shards);
    m "controller.deferrals_per_txn" "deferrals/txn" (per_txn (ctl (fun s -> s.deferrals)));
    m "controller.spurious_wakeup_ratio" "ratio"
      (Stats.per (ctl (fun s -> s.spurious_wakeups)) (ctl (fun s -> s.wakeups)));
    m "controller.sheds" "count" (float_of_int (ctl (fun s -> s.sheds)));
    m "physical.retries_per_txn" "retries/txn" (per_txn (ctl (fun s -> s.exec_retries)));
    m "devices.ops_per_txn" "ops/txn" (per_txn (a.Drive.dev_ops - b.Drive.dev_ops));
    m "twopc.cross_share" "ratio" (per_txn cross);
    m "twopc.abort_ratio" "ratio" (Stats.per (ctl (fun s -> s.twopc_aborted)) cross);
    m "twopc.prepares_per_cross_txn" "prepares/txn"
      (Stats.per (ctl (fun s -> s.twopc_prepares)) cross) ]

(* Span-derived metrics of a traced execution. *)
let layer_spans (d : Drive.t) (split : Phases.split) ~overhead =
  match d.Drive.trace with
  | None -> []
  | Some tr ->
    let q name p = Metrics.Cdf.quantile (Stats.cdf (Phases.durations tr name)) p in
    [ m "controller.simulate_p50_s" "virtual_s" (q "simulate" 0.5);
      m "controller.simulate_p99_s" "virtual_s" (q "simulate" 0.99);
      m "controller.lock_wait_p99_s" "virtual_s" (q "lock-wait" 0.99);
      m "physical.replay_p50_s" "virtual_s" (q "replay" 0.5);
      m "physical.replay_p99_s" "virtual_s" (q "replay" 0.99);
      m "physical.undos" "count"
        (float_of_int
           (List.length
              (List.filter
                 (fun (s : Trace.span) -> s.Trace.cat = "undo" && s.Trace.name = "undo")
                 (Trace.spans tr)))) ]
    @ Array.to_list
        (Array.mapi
           (fun i name ->
             m ("phase." ^ name) "ratio"
               (Stats.ratio split.Phases.totals.(i) split.Phases.latency))
           Phases.names)
    @ [ m "trace.spans_per_txn" "spans/txn"
          (Stats.per (Trace.span_count tr) (committed d));
        m "trace.overhead_ratio" "ratio" overhead ]

let micro_metrics (u : Micro.t) =
  [ m "logical.simulate_us" "us" u.Micro.simulate_us;
    m "logical.rollback_us" "us" u.Micro.rollback_us;
    m "mglock.acquire_release_us" "us" u.Micro.mglock_us;
    m "txn.codec_us" "us" u.Micro.codec_us ]

(* ------------------------------------------------------------------ *)

let extra_setups = 30

(* Run [f] until [deadline] (wall clock) has passed, at least once. *)
let repeat_until deadline f =
  let rec go acc =
    let acc = f () :: acc in
    if Drive.wall () >= deadline then List.rev acc else go acc
  in
  go []

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_metric x =
  Printf.printf "  %-34s %24s %s\n" x.name (json_float x.value) x.unit

let () =
  let args = parse_args () in
  let w =
    match Spec.make args.workload args.seed with
    | Some w -> w
    | None -> usage ()
  in
  let deadline = Drive.wall () +. args.seconds in
  (* Chunks of the reference computation are timed throughout each
     measured window, and the window less their time is scaled by their
     mean (see calib.ml). *)
  let readings = ref [] in
  let execute ~traced =
    let meter = Calib.meter () in
    let d = Drive.execute ~between:(fun () -> Calib.probe meter) ~traced w in
    let reference = Calib.mean meter in
    readings := meter.Calib.readings @ !readings;
    let own = d.Drive.wall_s -. meter.Calib.spent in
    (d, own, Calib.scale own ~reference)
  in
  let runs =
    repeat_until deadline (fun () ->
        let plain = execute ~traced:false in
        (plain, if args.trace then Some (execute ~traced:true) else None))
  in
  let plains = List.map (fun ((d, _, _), _) -> d) runs in
  let traced = List.filter_map (fun (_, t) -> Option.map (fun (d, _, _) -> d) t) runs in
  let scaled_walls = List.map (fun ((_, _, s), _) -> s) runs in
  let first = List.hd plains in
  let all = plains @ traced in
  let problems =
    List.concat_map (fun (d : Drive.t) -> d.Drive.problems) all
    @ List.filter_map
        (fun (d : Drive.t) ->
          if d.Drive.digest = first.Drive.digest then None
          else
            Some
              (Printf.sprintf "outcome digest %s differs from the first %s%s"
                 d.Drive.digest first.Drive.digest
                 (if d.Drive.trace = None then "" else " (traced run)")))
        all
  in
  let wall_s = Stats.median scaled_walls in
  let raw_wall_s = Stats.median (List.map (fun ((_, own, _), _) -> own) runs) in
  let reference_s = Stats.median !readings in
  (* Set-up is milliseconds: time extra bare set-ups, each scaled by a
     chunk timed just before it. *)
  let setup_s =
    Stats.median
      (List.init extra_setups (fun _ ->
           let reference = Calib.time () in
           Calib.scale ~reference
             (Drive.set_up ~traced:false w).Drive.setup_wall_s))
  in
  (* Later executions start from a heap the earlier ones grew and still see
     their results, so memory is read from the first one only. *)
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  let live_heap_mb = mb first.Drive.live_words in
  let top_heap_mb = mb first.Drive.top_heap_words in
  let events (d : Drive.t) = d.Drive.after.Drive.events - d.Drive.before.Drive.events in
  let events_per_wall_s =
    Stats.median
      (List.map2
         (fun (d : Drive.t) s -> Stats.ratio (float_of_int (events d)) s)
         plains scaled_walls)
  in
  let e2e = end_to_end first ~wall_s ~setup_s ~live_heap_mb in
  let layers =
    outcome_metrics first
    @ layer_counts first ~events_per_wall_s
    @ [ m "gc.top_heap_mb" "MB" top_heap_mb;
        m "host.reference_s" "s" reference_s;
        m "host.raw_wall_s" "s" raw_wall_s ]
  in
  let traced_layers, split_problems =
    match traced with
    | [] -> ([], [])
    | d :: _ ->
      let split = Phases.split (Option.get d.Drive.trace) d.Drive.replies in
      let overhead =
        Stats.ratio
          (Stats.median
             (List.filter_map (fun (_, t) -> Option.map (fun (_, _, s) -> s) t) runs))
          wall_s
      in
      (layer_spans d split ~overhead, split.Phases.problems)
  in
  let micro = if args.trace then micro_metrics (Micro.run w) else [] in
  let problems =
    problems @ split_problems
    @ List.filter_map
        (fun x ->
          if Float.is_finite x.value then None
          else Some (x.name ^ " is not a finite number"))
        (e2e @ layers @ traced_layers @ micro)
  in
  let lat = committed_latencies first in
  Printf.printf "workload %s, seed %d, %d execution(s)%s\n" w.Spec.name
    w.Spec.seed (List.length plains)
    (if traced = [] then "" else Printf.sprintf " + %d traced" (List.length traced));
  Printf.printf
    "requests %d: committed %d, rejected %d, errors %d; commit latency n=%d, \
     %d beyond p99; outcome digest %s\n"
    (Array.length first.Drive.replies) (committed first)
    (count (fun r -> Drive.classify r.Drive.state = Drive.Rejected) first)
    (errors first) (Metrics.Cdf.count lat) (Stats.beyond lat 0.99) first.Drive.digest;
  Printf.printf
    "idle timers: %.1f events per virtual second with no load, about %.0f%% \
     of the measured window's %d events\n"
    first.Drive.idle_events_per_s
    (100.
    *. Stats.ratio
         (first.Drive.idle_events_per_s *. window first)
         (float_of_int (events first)))
    (events first);
  List.iteri
    (fun i ((d : Drive.t), own, scaled) ->
      Printf.printf
        "execution %d%s: set-up %.6f s, measured window %.6f s wall, %.6f s \
         scaled to the reference\n"
        (i + 1)
        (if d.Drive.trace = None then "" else " (traced)")
        d.Drive.setup_s own scaled)
    (List.concat_map (fun (p, t) -> p :: Option.to_list t) runs);
  Printf.printf
    "reference chunk: median %.6f s over %d readings (%.6f s nominal)\n"
    reference_s (List.length !readings) Calib.nominal_s;
  Printf.printf "end to end:\n";
  List.iter print_metric e2e;
  Printf.printf "per layer:\n";
  List.iter print_metric (layers @ traced_layers @ micro);
  List.iteri
    (fun i p -> if i < 20 then Printf.printf "CHECK FAILED: %s\n" p)
    problems;
  let reported = if args.trace then layers @ traced_layers @ micro else e2e in
  let attempted =
    List.fold_left (fun n (d : Drive.t) -> n + Array.length d.Drive.replies) 0 all
  in
  let failed = List.fold_left (fun n d -> n + errors d) 0 all in
  let correct = problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_float x.value) x.unit)
          reported));
  exit (if correct then 0 else 1)
