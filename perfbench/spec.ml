(* The three benchmark workloads.  Each is a deployment (inventory size and
   platform spec) plus the requests the clients will send, generated from
   the workload seed before any platform exists: the system under test
   only ever sees these inputs. *)

type request = {
  idx : int;
  proc : string;
  args : Data.Value.t list;
  key : string;  (** one caller per key: requests sharing it run in order *)
  due : float;   (** open loops: virtual seconds after the load starts *)
}

type load =
  | Closed of request list array
      (** one list per session, each request sent when the previous one
          returned (zero think time) *)
  | Open of request list  (** sent at their due times, ascending *)

type t = {
  name : string;
  seed : int;
  size : Tcloud.Setup.size;
  timed_devices : bool;  (** device actions consume simulated time *)
  fault_rate : float;    (** background transient-fault probability *)
  spec : Tropic.Platform.spec;
  load : load;
  kills : float list;
      (** virtual seconds after the load starts at which shard 0's leader
          controller is killed; each is restarted [restart_after] later *)
  restart_after : float;
  slo_s : float option;  (** latency limit of an open loop *)
  final_check : (request * Tropic.Txn.state option) array -> Data.Tree.t ->
    string list;
      (** workload-specific checks of the final composite tree; returns
          the violations *)
}

(* Seeds the numbers in the benchmark's docs were taken with, and the one
   kept back to validate a claimed change on inputs it was not tuned on. *)
let default_seed = 1
let held_out_seed = 9001

let host_string h = Data.Path.to_string (Tcloud.Setup.compute_path h)
let storage_string s = Data.Path.to_string (Tcloud.Setup.storage_path s)

let vm_state tree ~host ~vm =
  match
    Data.Tree.get_attr tree
      (Data.Path.child (Tcloud.Setup.compute_path host) vm)
      Devices.Schema.attr_state
  with
  | Some (Data.Value.Str s) -> Some s
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* toggle-closed: 16 sessions, each toggling its own VM on its own host.
   No lock contention and no device time: the ceiling is the coordination
   write path and the controller's persist loop. *)

let toggle_sessions = 16
let toggles_per_session = 64  (* start+stop pairs: 2 048 txns in all *)

let toggle_closed seed =
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = toggle_sessions;
      prepopulated_vms_per_host = 1;
    }
  in
  let session h =
    let host = host_string h in
    let vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
    List.init (2 * toggles_per_session) (fun k ->
        let proc, args =
          if k mod 2 = 0 then ("startVM", Tcloud.Procs.start_vm_args ~host ~vm)
          else ("stopVM", Tcloud.Procs.stop_vm_args ~host ~vm)
        in
        { idx = (h * 2 * toggles_per_session) + k; proc; args; key = vm;
          due = 0. })
  in
  (* Every session ends on a stop, so every VM must end stopped. *)
  let final_check _ tree =
    List.filter_map
      (fun h ->
        let vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
        match vm_state tree ~host:h ~vm with
        | Some s when s = Devices.Schema.state_stopped -> None
        | Some s -> Some (Printf.sprintf "%s ended %s, not stopped" vm s)
        | None -> Some (Printf.sprintf "%s missing from the final tree" vm))
      (List.init toggle_sessions Fun.id)
  in
  {
    name = "toggle-closed";
    seed;
    size;
    timed_devices = false;
    fault_rate = 0.;
    spec =
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.controllers = 1;
        workers = 4;
        shards = 1;
        mode = Tropic.Platform.Logical_only 0.002;
        coord_config =
          {
            Coord.Types.default_config with
            Coord.Types.op_service_time = 0.005;
            group_timeout = 0.001;
          };
        controller_config = Tcloud.Setup.controller_config;
        submit_clients = toggle_sessions;
        persist_clients = 8;
      };
    load = Closed (Array.init toggle_sessions session);
    kills = [];
    restart_after = 0.;
    slo_s = None;
    final_check;
  }

(* ------------------------------------------------------------------ *)
(* hosting-open: Poisson hosting ops over 3 shards in full mode, well
   below capacity.  Power cycling dominates the mix, so the median sits
   inside the start-latency mode instead of on a boundary between op
   classes; spawns outweigh destroys by 0.05, so the VM population grows
   slowly instead of random-walking (a seed whose population drifts to a
   handful of VMs would queue far more ops per VM).  64 hosts and 16
   storage hosts keep per-root contention, and with it the p99, steady
   across seeds at about 2 000 requests. *)

let hosting_rate = 0.3
let hosting_duration = 6_700.
let hosting_slo_s = 30.

let vm_of_op = function
  | Workload.Hosting.Spawn { vm; _ }
  | Workload.Hosting.Start { vm; _ }
  | Workload.Hosting.Stop { vm; _ }
  | Workload.Hosting.Migrate { vm; _ }
  | Workload.Hosting.Destroy { vm; _ } ->
    vm

let hosting_open seed =
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = 64;
      storage_hosts = 16;
      storage_capacity_mb = 50_000_000;
    }
  in
  let config =
    {
      Workload.Hosting.weights =
        {
          Workload.Hosting.w_spawn = 0.15;
          w_start = 0.3;
          w_stop = 0.3;
          w_migrate = 0.15;
          w_destroy = 0.1;
        };
      rate_per_second = hosting_rate;
      duration_seconds = hosting_duration;
      compute_hosts = size.Tcloud.Setup.compute_hosts;
      storage_hosts = size.Tcloud.Setup.storage_hosts;
      hypervisor_groups = List.length size.Tcloud.Setup.hypervisors;
      vm_mem_mb = 1024;
    }
  in
  let requests =
    List.mapi
      (fun idx (due, op) ->
        let proc, args =
          Workload.Hosting.to_submission ~host_path:host_string
            ~storage_path:storage_string op
        in
        { idx; proc; args; key = vm_of_op op; due })
      (Workload.Hosting.generate ~seed config)
  in
  {
    name = "hosting-open";
    seed;
    size;
    timed_devices = true;
    fault_rate = 0.002;
    spec =
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.controllers = 1;
        workers = 4;
        shards = 3;
        mode = Tropic.Platform.Full;
        controller_config = Tcloud.Setup.controller_config;
        worker_retry = Tropic.Physical.default_retry;
      };
    load = Open requests;
    kills = [];
    restart_after = 0.;
    slo_s = Some hosting_slo_s;
    final_check = (fun _ _ -> []);
  }

(* ------------------------------------------------------------------ *)
(* failover: fixed-rate spawns on one shard while its leader controller is
   killed and restarted on a fixed schedule (paper §6.4). *)

let failover_rate = 4.0
let failover_duration = 280.
let failover_period = 40.
let failover_slo_s = 2.0

let failover seed =
  let hosts = 16 and storages = 4 in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = hosts;
      host_mem_mb = 1_000_000;
      storage_hosts = storages;
      storage_capacity_mb = 50_000_000;
    }
  in
  let n = int_of_float (failover_rate *. failover_duration) in
  let spawn i =
    let host = i mod hosts in
    let vm = Printf.sprintf "fo%05d" i in
    {
      idx = i;
      proc = "spawnVM";
      args =
        Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:256
          ~storage:(storage_string (host mod storages))
          ~host:(host_string host);
      key = vm;
      due = (float_of_int i +. 0.5) /. failover_rate;
    }
  in
  (* Every committed spawn must have left its VM running. *)
  let final_check outcomes tree =
    Array.to_list outcomes
    |> List.filter_map (fun (r, state) ->
           match state with
           | Some Tropic.Txn.Committed ->
             let host = r.idx mod hosts in
             (match vm_state tree ~host ~vm:r.key with
              | Some s when s = Devices.Schema.state_running -> None
              | Some s -> Some (Printf.sprintf "%s ended %s" r.key s)
              | None -> Some (r.key ^ " committed but missing"))
           | Some _ | None -> None)
  in
  let kills =
    List.init
      (int_of_float (failover_duration /. failover_period) - 1)
      (fun k -> (failover_period /. 2.) +. (float_of_int k *. failover_period))
  in
  {
    name = "failover";
    seed;
    size;
    timed_devices = false;
    fault_rate = 0.;
    spec =
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.controllers = 3;
        workers = 2;
        shards = 1;
        mode = Tropic.Platform.Logical_only 0.002;
        controller_config = Tcloud.Setup.controller_config;
        controller_session_timeout = 10.0;
      };
    load = Open (List.init n spawn);
    kills;
    restart_after = 15.;
    slo_s = Some failover_slo_s;
    final_check;
  }

let workloads =
  [ ("toggle-closed", toggle_closed); ("hosting-open", hosting_open);
    ("failover", failover) ]

let names = List.map fst workloads
let make name seed = Option.map (fun f -> f seed) (List.assoc_opt name workloads)

let requests t =
  match t.load with
  | Closed sessions -> List.concat (Array.to_list sessions)
  | Open requests -> requests
