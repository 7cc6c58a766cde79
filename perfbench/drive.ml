(* One execution of a workload: build the deployment, wait for every shard
   to elect a leader, measure an idle window, drive the load until every
   request is terminal (never to a fixed horizon), then check the result.
   Wall-clock and virtual-clock readings are taken around each stage. *)

let wall = Unix.gettimeofday

(* Virtual seconds simulated per slice while waiting for a condition. *)
let slice = 1.0

(* Idle window after election: settle, then count events. *)
let idle_settle = 2.0
let idle_window = 10.0

(* Give up on a load that has not finished this long after its last due
   time; its unfinished requests count as errors. *)
let grace = 3_600.

(* Leader polling step while a kill awaits its takeover. *)
let poll_step = 0.01

type outcome = Committed | Rejected | Errored of string

type reply = {
  req : Spec.request;
  mutable txn : int;           (* -1 until submitted *)
  mutable due_at : float;      (* absolute virtual time it was due *)
  mutable replied : float;
  mutable state : Tropic.Txn.state option;
}

(* Aborts that a logical-layer rejection (constraint or precondition at
   simulate) never produces; any of these is an error. *)
let non_logical_prefixes =
  [ "action #"; "terminated by operator"; "killed by operator"; "2pc";
    "resource quarantined" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let classify = function
  | None -> Errored "never finished"
  | Some Tropic.Txn.Committed -> Committed
  | Some (Tropic.Txn.Aborted reason as st) ->
    if Tropic.Txn.is_overload st then Errored "shed"
    else if List.exists (fun prefix -> starts_with ~prefix reason)
        non_logical_prefixes
    then Errored ("aborted: " ^ reason)
    else Rejected
  | Some (Tropic.Txn.Failed reason) -> Errored ("failed: " ^ reason)
  | Some st -> Errored ("not terminal: " ^ Tropic.Txn.state_to_string st)

(* Cumulative counters read at the edges of the measured window. *)
type counters = {
  events : int;
  msgs : int;
  coord_cmds : int;
  flushes : int;
  batched : int;
  io_busy : float;
  cpu_busy : float;
  store_nodes : int;
  dev_ops : int;
  ctl : Tropic.Controller.stats;
  alloc_words : float;
  major_gcs : int;
}

let ensembles p =
  List.init (Tropic.Platform.shard_count p) (Tropic.Platform.coord_ensemble p)

let leader_replicas p =
  List.filter_map
    (fun e ->
      Option.map (Coord.Ensemble.replica e) (Coord.Ensemble.leader_id e))
    (ensembles p)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Every controller instance's counters: live ones plus those banked when
   a killed instance was restarted. *)
let controller_totals p =
  let acc = Tropic.Controller.fresh_stats () in
  for sid = 0 to Tropic.Platform.shard_count p - 1 do
    Tropic.Controller.absorb_stats ~into:acc
      (Tropic.Platform.shard_retired_stats p sid)
  done;
  Array.iter
    (fun c -> Tropic.Controller.absorb_stats ~into:acc (Tropic.Controller.stats c))
    (Tropic.Platform.controllers p);
  acc

(* [retired_cpu]: CPU busy time of controller instances replaced after a
   kill, which the platform no longer reports. *)
let snapshot sim p devices ~retired_cpu =
  let g = Tropic.Platform.group_commit_stats p in
  let gc = Gc.quick_stat () in
  let leaders = leader_replicas p in
  {
    events = Des.Sim.executed sim;
    msgs = sum (fun e -> Des.Net.delivered (Coord.Ensemble.net e)) (ensembles p);
    coord_cmds = sum Coord.Replica.commit_index leaders;
    flushes = g.Coord.Types.flushes;
    batched = g.Coord.Types.batched_cmds;
    io_busy = Tropic.Platform.coord_io_busy p;
    cpu_busy = Tropic.Platform.controller_cpu_busy p +. retired_cpu;
    store_nodes = sum (fun r -> Coord.Store.size (Coord.Replica.store r)) leaders;
    dev_ops = sum Devices.Device.ops devices;
    ctl = controller_totals p;
    alloc_words =
      gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words;
    major_gcs = gc.Gc.major_collections;
  }

type kill = {
  killed_at : float;
  takeover_at : float;  (* a new leader is elected *)
}

type t = {
  spec : Spec.t;
  replies : reply array;  (* in request order *)
  setup_s : float;
  wall_s : float;
  top_heap_words : int;   (* Gc top heap once the load has run *)
  live_words : int;
      (* live after a full major collection at the end of the load, where
         retained state peaks: the coordination store only grows *)
  load_start : float;
  load_end : float;       (* last reply *)
  idle_events_per_s : float;
  before : counters;
  after : counters;
  coord_elections : int;  (* summed leader terms: elections since boot *)
  coord_log_entries : int;
  shards : int;
  kills : kill list;
  trace : Trace.t option;
  digest : string;
  problems : string list; (* failed correctness checks *)
}

(* Run [sim] in bounded slices until [pred] holds; false if the event
   queue drains or the clock passes [limit] first.  [between] runs after
   each slice. *)
let run_until ?(between = ignore) sim ~limit pred =
  let rec go () =
    if pred () then true
    else if Des.Sim.pending sim = 0 || Des.Sim.now sim > limit then false
    else begin
      ignore (Des.Sim.run ~until:(Des.Sim.now sim +. slice) sim);
      between ();
      go ()
    end
  in
  go ()

let all_leading p =
  List.for_all
    (fun sid -> Tropic.Platform.shard_leader p sid <> None)
    (List.init (Tropic.Platform.shard_count p) Fun.id)

let send p r =
  let id = Tropic.Platform.submit p ~proc:r.req.Spec.proc ~args:r.req.Spec.args in
  r.txn <- id;
  let state = Tropic.Platform.await p id in
  r.replied <- Des.Proc.now ();
  r.state <- Some state

(* Closed loop: each session sends its next request as soon as the
   previous one returns. *)
let start_closed sim p replies sessions ~on_reply =
  let by_idx = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace by_idx r.req.Spec.idx r) replies;
  Array.iteri
    (fun s requests ->
      ignore
        (Des.Proc.spawn ~name:(Printf.sprintf "session-%d" s) sim (fun () ->
             List.iter
               (fun (req : Spec.request) ->
                 let r = Hashtbl.find by_idx req.Spec.idx in
                 r.due_at <- Des.Proc.now ();
                 send p r;
                 on_reply ())
               requests)))
    sessions

(* Open loop: a generator sends each request at its due time; requests
   sharing a key (one VM, one caller) queue behind each other, still timed
   from their own due times. *)
let start_open sim p replies ~t0 ~on_reply =
  let busy : (string, reply Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let rec serve r =
    send p r;
    on_reply ();
    let q = Hashtbl.find busy r.req.Spec.key in
    if Queue.is_empty q then Hashtbl.remove busy r.req.Spec.key
    else serve (Queue.pop q)
  in
  ignore
    (Des.Proc.spawn ~name:"generator" sim (fun () ->
         Array.iter
           (fun r ->
             r.due_at <- t0 +. r.req.Spec.due;
             let wait = r.due_at -. Des.Proc.now () in
             if wait > 0. then Des.Proc.sleep wait;
             match Hashtbl.find_opt busy r.req.Spec.key with
             | Some q -> Queue.push r q
             | None ->
               Hashtbl.replace busy r.req.Spec.key (Queue.create ());
               ignore
                 (Des.Proc.spawn ~name:"caller" sim (fun () -> serve r)))
           replies))

(* Kill shard 0's leader on schedule, time the takeover, restart it. *)
let start_kills sim p (w : Spec.t) ~t0 ~retired_cpu ~record ~on_done =
  ignore
    (Des.Proc.spawn ~name:"killer" sim (fun () ->
         let sleep_until at =
           let d = at -. Des.Proc.now () in
           if d > 0. then Des.Proc.sleep d
         in
         List.iter
           (fun offset ->
             sleep_until (t0 +. offset);
             match Tropic.Platform.shard_leader_index p 0 with
             | None -> ()
             | Some i ->
               Tropic.Platform.kill_controller p i;
               let killed_at = Des.Proc.now () in
               while Tropic.Platform.shard_leader_index p 0 = None do
                 Des.Proc.sleep poll_step
               done;
               record { killed_at; takeover_at = Des.Proc.now () };
               sleep_until (killed_at +. w.Spec.restart_after);
               retired_cpu :=
                 !retired_cpu
                 +. Tropic.Controller.cpu_busy_time
                      (Tropic.Platform.controllers p).(i);
               Tropic.Platform.restart_controller p i)
           w.Spec.kills;
         on_done ()))

(* Each non-quarantined device's export must equal its subtree in the
   platform-wide logical tree. *)
let layer_problems p tree devices =
  let quarantined =
    List.concat_map
      (fun sid ->
        match Tropic.Platform.shard_leader p sid with
        | Some c -> Tropic.Controller.quarantined c
        | None -> [])
      (List.init (Tropic.Platform.shard_count p) Fun.id)
  in
  List.filter_map
    (fun device ->
      let root = Devices.Device.root device in
      if List.exists (fun q -> Data.Path.is_prefix q root) quarantined then None
      else
        match Data.Tree.subtree tree root with
        | Error _ ->
          Some ("device " ^ Data.Path.to_string root ^ " missing from tree")
        | Ok logical ->
          if Data.Tree.equal logical (Devices.Device.export device) then None
          else
            Some ("layers diverge at " ^ Data.Path.to_string root))
    devices

let outcome_tag = function
  | Committed -> "C"
  | Rejected -> "R"
  | Errored _ -> "E"

(* Digest of per-request outcomes (class, final state, virtual due and
   reply times, bit-exact) and of the final composite tree. *)
let digest replies tree =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Printf.bprintf b "%d %d %s %s %h %h\n" r.req.Spec.idx r.txn
        (outcome_tag (classify r.state))
        (match r.state with
         | Some s -> Tropic.Txn.state_to_string s
         | None -> "-")
        r.due_at r.replied)
    replies;
  Buffer.add_string b (Data.Tree.to_string tree);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A freshly built deployment whose shards all lead. *)
type deployment = {
  sim : Des.Sim.t;
  platform : Tropic.Platform.t;
  devices : Devices.Device.t list;
  trace_rec : Trace.t option;
  elected : bool;
  setup_wall_s : float;  (* inventory build + create + election *)
}

let set_up ~traced (w : Spec.t) =
  Gc.compact ();
  let t0 = wall () in
  let sim = Des.Sim.create ~seed:w.Spec.seed () in
  let trace = if traced then Some (Trace.create ~sim ()) else None in
  let inv =
    if w.Spec.timed_devices then
      Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) w.Spec.size
    else Tcloud.Setup.build ~rng:(Des.Sim.rng sim) w.Spec.size
  in
  let devices = inv.Tcloud.Setup.devices in
  if w.Spec.fault_rate > 0. then
    List.iter
      (fun d ->
        match
          Devices.Fault.set_probability (Devices.Device.faults d)
            w.Spec.fault_rate
        with
        | Ok () -> ()
        | Error e -> failwith e)
      devices;
  let platform =
    Tropic.Platform.create
      { w.Spec.spec with Tropic.Platform.trace }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree ~devices sim
  in
  let elected = run_until sim ~limit:grace (fun () -> all_leading platform) in
  { sim; platform; devices; trace_rec = trace; elected;
    setup_wall_s = wall () -. t0 }

(* [between] runs after each slice of the load; the time it takes is part
   of [wall_s]. *)
let execute ?between ~traced (w : Spec.t) =
  let { sim; platform = p; devices; trace_rec = trace; elected;
        setup_wall_s = setup_s } =
    set_up ~traced w
  in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  if not elected then problem "a shard never elected a leader";
  (* Idle window: no load, only heartbeats, ticks and session checks. *)
  ignore (Des.Sim.run ~until:(Des.Sim.now sim +. idle_settle) sim);
  let idle_ev0 = Des.Sim.executed sim in
  ignore (Des.Sim.run ~until:(Des.Sim.now sim +. idle_window) sim);
  let idle_events_per_s =
    float_of_int (Des.Sim.executed sim - idle_ev0) /. idle_window
  in
  let replies =
    Spec.requests w
    |> List.map (fun req ->
           { req; txn = -1; due_at = 0.; replied = 0.; state = None })
    |> Array.of_list
  in
  Array.sort (fun a b -> compare a.req.Spec.idx b.req.Spec.idx) replies;
  let outstanding = ref (Array.length replies) in
  let on_reply () = decr outstanding in
  let killer_done = ref (w.Spec.kills = []) in
  let kills = ref [] and retired_cpu = ref 0. in
  let before = snapshot sim p devices ~retired_cpu:0. in
  let wall_t0 = wall () in
  let load_start = Des.Sim.now sim in
  (match w.Spec.load with
   | Spec.Closed sessions -> start_closed sim p replies sessions ~on_reply
   | Spec.Open _ -> start_open sim p replies ~t0:load_start ~on_reply);
  if w.Spec.kills <> [] then
    start_kills sim p w ~t0:load_start ~retired_cpu
      ~record:(fun k -> kills := k :: !kills)
      ~on_done:(fun () -> killer_done := true);
  let last_due =
    Array.fold_left (fun acc r -> Float.max acc r.req.Spec.due) 0. replies
  in
  let finished =
    run_until ?between sim ~limit:(load_start +. last_due +. grace) (fun () ->
        !outstanding = 0 && !killer_done)
  in
  let wall_s = wall () -. wall_t0 in
  let after = snapshot sim p devices ~retired_cpu:!retired_cpu in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  if not finished then
    problem
      (Printf.sprintf "load did not finish: %d requests outstanding"
         !outstanding);
  (* A kill finds no leader to kill if the last takeover has not settled;
     the failover figures must cover every scheduled kill. *)
  if List.length !kills <> List.length w.Spec.kills then
    problem
      (Printf.sprintf "%d of %d scheduled kills happened"
         (List.length !kills) (List.length w.Spec.kills));
  let load_end =
    Array.fold_left (fun acc r -> Float.max acc r.replied) load_start replies
  in
  let leaders = leader_replicas p in
  let coord_elections = sum Coord.Replica.term leaders in
  let coord_log_entries = sum Coord.Replica.log_length leaders in
  (* Post-run checks, run as a process because they read the
     coordination service: no submitted txn is lost (its persisted record
     is terminal and agrees with the reply), and the final tree. *)
  let final_tree = ref Data.Tree.empty in
  let checked = ref false in
  ignore
    (Des.Proc.spawn ~name:"checker" sim (fun () ->
         Array.iter
           (fun r ->
             if r.txn >= 0 then
               match Tropic.Platform.txn_state p r.txn with
               | Some s when Some s = r.state && Tropic.Txn.is_terminal s -> ()
               | Some s ->
                 problem
                   (Printf.sprintf "txn %d persisted %s" r.txn
                      (Tropic.Txn.state_to_string s))
               | None -> problem (Printf.sprintf "txn %d lost" r.txn))
           replies;
         final_tree := Tropic.Platform.composite_tree p;
         checked := true));
  if not (run_until sim ~limit:(Des.Sim.now sim +. grace) (fun () -> !checked))
  then problem "post-run checks did not finish";
  (match Des.Sim.failures sim with
   | [] -> ()
   | failures ->
     List.iter
       (fun (who, exn) ->
         problem
           (Printf.sprintf "process %s crashed: %s" who (Printexc.to_string exn)))
       failures);
  Array.iter
    (fun r ->
      match classify r.state with
      | Errored e -> problem (Printf.sprintf "request %d: %s" r.req.Spec.idx e)
      | Committed | Rejected -> ())
    replies;
  let rejected =
    Array.fold_left
      (fun n r -> if classify r.state = Rejected then n + 1 else n)
      0 replies
  in
  let violations =
    after.ctl.Tropic.Controller.violations
    - before.ctl.Tropic.Controller.violations
  in
  if rejected <> violations then
    problem
      (Printf.sprintf
         "%d requests rejected but the controllers counted %d simulate \
          violations"
         rejected violations);
  if w.Spec.timed_devices then
    List.iter problem (layer_problems p !final_tree devices);
  List.iter problem
    (w.Spec.final_check
       (Array.map (fun r -> (r.req, r.state)) replies)
       !final_tree);
  (match trace with
   | None -> ()
   | Some tr ->
     List.iter
       (fun e -> problem ("trace: " ^ Trace.Check.error_to_string e))
       (Trace.Check.validate tr));
  {
    spec = w;
    replies;
    setup_s;
    wall_s;
    top_heap_words;
    live_words;
    load_start;
    load_end;
    idle_events_per_s;
    before;
    after;
    coord_elections;
    coord_log_entries;
    shards = Tropic.Platform.shard_count p;
    kills = List.rev !kills;
    trace;
    digest = digest replies !final_tree;
    problems = List.rev !problems;
  }
