type mode = Full | Logical_only of float

type spec = {
  controllers : int;
  workers : int;
  shards : int;
  mode : mode;
  coord_replicas : int;
  coord_config : Coord.Types.config;
  controller_config : Controller.config;
  controller_session_timeout : float;
  submit_clients : int;
  client_slots : int;
  persist_clients : int; (* no effect; see platform.mli *)
  worker_retry : Physical.retry_policy;
  trace : Trace.t option;
      (* span recorder shared by every controller and worker *)
}

let default_spec =
  {
    controllers = 3;
    workers = 1;
    shards = 1;
    mode = Full;
    coord_replicas = 3;
    coord_config = Coord.Types.default_config;
    controller_config = Controller.default_config;
    controller_session_timeout = 10.0;
    submit_clients = 4;
    client_slots = 64;
    persist_clients = 0;
    worker_retry = Physical.no_retry;
    trace = None;
  }

(* Controllers and workers live in flat shard-major arrays: shard [s]'s
   replica group occupies slots [s*n .. s*n + n-1].  A single-shard
   platform therefore has exactly the pre-sharding layout (and nemeses
   that pick random slots keep working unchanged). *)
type t = {
  psim : Des.Sim.t;
  pspec : spec;
  penv : Dsl.env;
  pdevices : Physical.device_lookup;
  pdevice_roots : Data.Path.t list;
  pshard : Shard.t;  (* base assignment, viewed from shard 0 *)
  ensembles : Coord.Ensemble.t array;  (* one per shard; slot 0 is global *)
  control : Controller.t array;
  work : Worker.t array;
  submitters : Coord.Client.t array array;  (* per shard *)
  retired : Controller.stats array;
      (* per shard: counters of controller instances retired by
         [restart_controller], so fail-overs do not erase transaction
         totals (a crashed leader's commits would otherwise vanish from
         the run summary with its in-memory stats record) *)
  mutable next_submitter : int;
  (* await support: key -> wakeup channels, fed by per-client dispatchers.
     Namespaced keys are globally unique, so one table serves all shards. *)
  awaiters : (string, unit Des.Channel.t list ref) Hashtbl.t;
}

let sim t = t.psim
let spec t = t.pspec
let controllers t = t.control
let workers t = t.work
let coord t = t.ensembles.(0)
let coord_ensemble t sid = t.ensembles.(sid)

(* Membership counters summed across shards (each ensemble's instances
   share one stats record; here we merge the per-shard records). *)
let membership_stats t =
  let total = Coord.Types.fresh_membership_stats () in
  Array.iter
    (fun e ->
      let s = Coord.Ensemble.membership_stats e in
      total.Coord.Types.joins <- total.Coord.Types.joins + s.Coord.Types.joins;
      total.Coord.Types.leaves <- total.Coord.Types.leaves + s.Coord.Types.leaves;
      total.Coord.Types.catchups <-
        total.Coord.Types.catchups + s.Coord.Types.catchups;
      total.Coord.Types.stale_sessions_rejected <-
        total.Coord.Types.stale_sessions_rejected
        + s.Coord.Types.stale_sessions_rejected)
    t.ensembles;
  total

(* Group-commit counters, merged the same way (the batch-size histogram
   sums bucket-wise; max_batch takes the max). *)
let group_commit_stats t =
  let total = Coord.Types.fresh_group_stats () in
  Array.iter
    (fun e ->
      let s = Coord.Ensemble.group_stats e in
      total.Coord.Types.flushes <- total.Coord.Types.flushes + s.Coord.Types.flushes;
      total.Coord.Types.flush_full <-
        total.Coord.Types.flush_full + s.Coord.Types.flush_full;
      total.Coord.Types.flush_timeout <-
        total.Coord.Types.flush_timeout + s.Coord.Types.flush_timeout;
      total.Coord.Types.batched_cmds <-
        total.Coord.Types.batched_cmds + s.Coord.Types.batched_cmds;
      total.Coord.Types.acks_deferred <-
        total.Coord.Types.acks_deferred + s.Coord.Types.acks_deferred;
      total.Coord.Types.unsafe_acks <-
        total.Coord.Types.unsafe_acks + s.Coord.Types.unsafe_acks;
      if s.Coord.Types.max_batch > total.Coord.Types.max_batch then
        total.Coord.Types.max_batch <- s.Coord.Types.max_batch;
      Array.iteri
        (fun i n ->
          total.Coord.Types.batch_hist.(i) <-
            total.Coord.Types.batch_hist.(i) + n)
        s.Coord.Types.batch_hist)
    t.ensembles;
  total

let shard_count t = t.pspec.shards

(* Shard responsible for a transaction: where its single-shard execution
   runs, or the coordinator (lowest touched shard) of a cross-shard one. *)
let route t ~args =
  if t.pspec.shards = 1 then 0
  else
    match Router.classify t.pshard ~args with
    | Router.Single sid -> sid
    | Router.Cross { coord; _ } -> coord

let shard_of_path t path = Shard.owner_of t.pshard path
let shard_of_txn t txn_id = txn_id mod t.pspec.shards
let ns_of_txn t txn_id = Proto.ns_of_shard (shard_of_txn t txn_id)

let controller_slots t sid =
  let n = t.pspec.controllers in
  List.init n (fun j -> (sid * n) + j)

let shard_leader_index t sid =
  List.find_opt
    (fun i -> Controller.is_leader t.control.(i))
    (controller_slots t sid)

let shard_leader t sid =
  Option.map (fun i -> t.control.(i)) (shard_leader_index t sid)

let await_shard_leader t sid =
  let rec wait () =
    match shard_leader t sid with
    | Some c -> c
    | None ->
      Des.Proc.sleep 0.25;
      wait ()
  in
  wait ()

let leader_controller t = shard_leader t 0
let await_leader_controller t = await_shard_leader t 0
let leader_index t = shard_leader_index t 0

let logical_tree t =
  match leader_controller t with
  | Some c -> Controller.tree c
  | None -> failwith "Platform.logical_tree: no leading controller"

(* The platform-wide logical tree: shard 0's view with every other
   shard's owned subtrees grafted in from that shard's leader (the local
   copies of foreign subtrees are cosmetic and go stale).  Blocks until
   every shard has a leader. *)
let composite_tree t =
  let base = Controller.tree (await_shard_leader t 0) in
  let rec graft tree sid =
    if sid >= t.pspec.shards then tree
    else begin
      let c = await_shard_leader t sid in
      let shard_tree = Controller.tree c in
      let tree =
        List.fold_left
          (fun tree root ->
            match Data.Tree.subtree shard_tree root with
            | Error _ -> tree
            | Ok node ->
              (match Data.Tree.replace_subtree tree root node with
               | Ok tree' -> tree'
               | Error _ -> tree))
          tree
          (Shard.roots_of t.pshard sid)
      in
      graft tree (sid + 1)
    end
  in
  graft base 1

let controller_cpu_busy t =
  Array.fold_left (fun acc c -> acc +. Controller.cpu_busy_time c) 0. t.control

let coord_io_busy t =
  Array.fold_left
    (fun acc ensemble ->
      match Coord.Ensemble.leader_id ensemble with
      | Some leader ->
        acc +. Coord.Replica.station_busy_time (Coord.Ensemble.replica ensemble leader)
      | None -> acc)
    0. t.ensembles

(* ------------------------------------------------------------------ *)
(* Construction *)

let worker_mode = function
  | Full -> Worker.Full
  | Logical_only delay -> Worker.Logical_only delay

let connect_controller t sid cname =
  let client =
    Coord.Ensemble.connect t.ensembles.(sid)
      ~session_timeout:t.pspec.controller_session_timeout ~name:cname ()
  in
  let gclient =
    if sid = 0 then None
    else
      Some
        (Coord.Ensemble.connect t.ensembles.(0)
           ~session_timeout:t.pspec.controller_session_timeout
           ~name:(cname ^ "-g") ())
  in
  Controller.create ?trace:t.pspec.trace
    ~shard:(Shard.view t.pshard ~sid)
    ?gclient ~name:cname ~client ~env:t.penv
    ~config:t.pspec.controller_config ~devices:t.pdevices
    ~device_roots:t.pdevice_roots ~sim:t.psim ()

let connect_worker t i wname =
  let sid = i / t.pspec.workers in
  let client = Coord.Ensemble.connect t.ensembles.(sid) ~name:wname () in
  Worker.create ~retry:t.pspec.worker_retry ?trace:t.pspec.trace
    ~ns:(Proto.ns_of_shard sid) ~ordinal:i ~name:wname ~client
    ~mode:(worker_mode t.pspec.mode) ~devices:t.pdevices ~sim:t.psim ()

let create pspec env ~initial_tree ~devices psim =
  let pspec = { pspec with shards = max 1 pspec.shards } in
  let on_event =
    Option.map
      (fun tracer { Coord.Ensemble.ev_name; ev_attrs } ->
        Trace.instant tracer ~txn:0 ~cat:"membership" ~name:ev_name
          ~attrs:ev_attrs ())
      pspec.trace
  in
  let ensembles =
    Array.init pspec.shards (fun _ ->
        Coord.Ensemble.create ~replicas:pspec.coord_replicas
          ~clients:pspec.client_slots ~config:pspec.coord_config ?on_event psim)
  in
  let device_lookup = Physical.lookup_of_list devices in
  let device_roots = List.map Devices.Device.root devices in
  let pshard = Shard.make ~sid:0 ~shards:pspec.shards device_roots in
  let submitters =
    Array.init pspec.shards (fun sid ->
        Array.init pspec.submit_clients (fun i ->
            Coord.Ensemble.connect ensembles.(sid)
              ~name:(Printf.sprintf "submitter-%d-%d" sid i) ()))
  in
  let t =
    {
      psim;
      pspec;
      penv = env;
      pdevices = device_lookup;
      pdevice_roots = device_roots;
      pshard;
      ensembles;
      control = [||];
      work = [||];
      submitters;
      retired = Array.init pspec.shards (fun _ -> Controller.fresh_stats ());
      next_submitter = 0;
      awaiters = Hashtbl.create 256;
    }
  in
  let control =
    Array.init
      (pspec.shards * pspec.controllers)
      (fun i ->
        let sid = i / pspec.controllers in
        connect_controller t sid (Printf.sprintf "controller-%d" i))
  in
  let work =
    Array.init
      (pspec.shards * pspec.workers)
      (fun i -> connect_worker t i (Printf.sprintf "worker-%d" i))
  in
  let t = { t with control; work } in
  (* Watch-event dispatcher: wake every awaiter registered on the key a
     watch fired for.  One dispatcher per submit client. *)
  Array.iteri
    (fun sid shard_submitters ->
      Array.iteri
        (fun i client ->
          ignore
            (Des.Proc.spawn
               ~name:(Printf.sprintf "await-dispatch-%d-%d" sid i)
               psim
               (fun () ->
                 let events = Coord.Client.events client in
                 while not (Coord.Client.closed client) do
                   let event = Des.Channel.recv events in
                   match
                     Hashtbl.find_opt t.awaiters event.Coord.Types.watched
                   with
                   | Some channels ->
                     List.iter (fun ch -> Des.Channel.send ch ()) !channels
                   | None -> ()
                 done)))
        shard_submitters)
    t.submitters;
  (* Bootstrap: the full initial logical tree is checkpoint 0 of {e every}
     shard; each controller group waits for its own before recovering.
     (Foreign subtrees in a shard's tree are cosmetic copies — only the
     owned roots are served, see [composite_tree].) *)
  ignore
    (Des.Proc.spawn ~name:"bootstrap" psim (fun () ->
         let snapshot =
           Data.Sexp.List
             [ Data.Sexp.of_int 0; Data.Tree.to_sexp initial_tree ]
         in
         let value = Data.Sexp.to_string snapshot in
         for sid = 0 to pspec.shards - 1 do
           match
             Coord.Client.write
               t.submitters.(sid).(0)
               ~key:(Proto.checkpoint_key_ns (Proto.ns_of_shard sid))
               ~value ()
           with
           | Ok _ -> ()
           | Error e ->
             failwith
               (Printf.sprintf "bootstrap of shard %d failed: %s" sid
                  (Format.asprintf "%a" Coord.Types.pp_op_error e))
         done));
  Array.iter Controller.start control;
  Array.iter Worker.start work;
  t

(* ------------------------------------------------------------------ *)
(* Client API *)

let pick_submitter t sid =
  let shard_submitters = t.submitters.(sid) in
  let client =
    shard_submitters.(t.next_submitter mod Array.length shard_submitters)
  in
  t.next_submitter <- t.next_submitter + 1;
  client

let enqueue_input t sid item =
  let client = pick_submitter t sid in
  Coord.Recipes.enqueue client
    ~queue:(Proto.input_queue_ns (Proto.ns_of_shard sid))
    (Proto.input_to_string item)

(* Transaction ids carry their shard in the residue: [id = seq * shards +
   sid].  The accepting controller derives the same id from the queue-item
   sequence number, so the platform can compute it at submit time without
   a round trip. *)
let submit t ~proc ~args =
  let sid = route t ~args in
  let key = enqueue_input t sid (Proto.Request { proc; args }) in
  match Proto.seq_of_item_key key with
  | Ok seq -> (seq * t.pspec.shards) + sid
  | Error reason -> failwith ("Platform.submit: " ^ reason)

let txn_state_via ?watch client ~ns txn_id =
  match Coord.Client.get ?watch client (Txn.record_key_ns ns txn_id) with
  | None -> None
  | Some (value, _) ->
    (match Txn.of_string value with
     | Ok txn -> Some txn.Txn.state
     | Error _ -> None)

let txn_state t txn_id =
  let sid = shard_of_txn t txn_id in
  txn_state_via (pick_submitter t sid) ~ns:(ns_of_txn t txn_id) txn_id

let register_awaiter t key channel =
  let channels =
    match Hashtbl.find_opt t.awaiters key with
    | Some existing -> existing
    | None ->
      let fresh = ref [] in
      Hashtbl.replace t.awaiters key fresh;
      fresh
  in
  channels := channel :: !channels

let unregister_awaiter t key channel =
  match Hashtbl.find_opt t.awaiters key with
  | None -> ()
  | Some channels ->
    channels := List.filter (fun ch -> ch != channel) !channels;
    if !channels = [] then Hashtbl.remove t.awaiters key

let await t txn_id =
  let sid = shard_of_txn t txn_id in
  let ns = ns_of_txn t txn_id in
  let client = pick_submitter t sid in
  let key = Txn.record_key_ns ns txn_id in
  let wakeup = Des.Channel.create ~name:"await" () in
  register_awaiter t key wakeup;
  Fun.protect
    ~finally:(fun () -> unregister_awaiter t key wakeup)
    (fun () ->
      Coord.Recipes.await_read
        ~read:(fun ~watch ->
          match txn_state_via ~watch client ~ns txn_id with
          | Some state when Txn.is_terminal state -> Some state
          | Some _ | None -> None)
        ~wait:(fun () ->
          Option.is_some (Des.Channel.recv_timeout wakeup ~timeout:1.0)))

let run_txn t ~proc ~args =
  let txn_id = submit t ~proc ~args in
  await t txn_id

(* Submit the whole batch before awaiting any of it, so the requests are
   pipelined through the input queue and the controller can interleave
   their scheduling — the goal-state executor runs each plan wave this
   way. *)
let submit_batch t specs =
  let ids = List.map (fun (proc, args) -> submit t ~proc ~args) specs in
  List.map (fun id -> id, await t id) ids

let signal t txn_id s =
  ignore
    (enqueue_input t (shard_of_txn t txn_id)
       (Proto.Control (Proto.Signal (txn_id, s))))

let reload t path =
  ignore
    (enqueue_input t
       (Shard.owner_of t.pshard path)
       (Proto.Control (Proto.Reload path)))

let repair t path =
  ignore
    (enqueue_input t
       (Shard.owner_of t.pshard path)
       (Proto.Control (Proto.Repair path)))

let kill_controller t i = Controller.crash t.control.(i)

(* A crashed controller's coordination session is gone for good; a restart
   is a brand-new controller instance (fresh session, fresh recovery) that
   keeps the slot and the name — exactly a process supervisor restarting
   the daemon on the same machine. *)
let restart_controller t i =
  let cname = Controller.name t.control.(i) in
  let sid = i / t.pspec.controllers in
  (* The replaced instance's counters would die with it; bank them so the
     shard's cumulative totals survive the fail-over. *)
  Controller.absorb_stats ~into:t.retired.(sid)
    (Controller.stats t.control.(i));
  let c = connect_controller t sid cname in
  t.control.(i) <- c;
  Controller.start c

let shard_retired_stats t sid = t.retired.(sid)

let kill_worker t i = Worker.crash t.work.(i)

(* Same supervisor model as [restart_controller]: the replacement worker is
   a fresh instance (new session — the old ephemeral executing markers die
   with the crashed session) under the same name and slot. *)
let restart_worker t i =
  let w = connect_worker t i (Worker.name t.work.(i)) in
  t.work.(i) <- w;
  Worker.start w

type leader_stats = {
  ls_leader : int option;
  ls_committed : int;
  ls_aborted : int;
  ls_failed : int;
  ls_sheds : int;
  ls_todo : int;
}

let no_leader_stats =
  {
    ls_leader = None;
    ls_committed = 0;
    ls_aborted = 0;
    ls_failed = 0;
    ls_sheds = 0;
    ls_todo = 0;
  }

(* Platform totals: every shard leader's counters summed.  [ls_leader]
   reports shard 0's leading slot (the historical single-shard field). *)
let leader_stats t =
  let acc = ref no_leader_stats in
  let any = ref false in
  for sid = 0 to t.pspec.shards - 1 do
    match shard_leader t sid with
    | None -> ()
    | Some c ->
      any := true;
      let st = Controller.stats c in
      acc :=
        {
          ls_leader =
            (if sid = 0 then shard_leader_index t 0 else !acc.ls_leader);
          ls_committed = !acc.ls_committed + st.Controller.committed;
          ls_aborted = !acc.ls_aborted + st.Controller.aborted;
          ls_failed = !acc.ls_failed + st.Controller.failed;
          ls_sheds = !acc.ls_sheds + st.Controller.sheds;
          ls_todo = !acc.ls_todo + Controller.todo_length c;
        }
  done;
  if !any then !acc else no_leader_stats
