(* Tests for the commit hot path behind the saturation-throughput bench:
   the coordination-service group-commit batcher (quorum-gated acks,
   size/timeout flush triggers, exactly-once across leader crashes, the
   unsafe-ack durability ablation), the controller's deduplicated
   wake-on-release passes, and the write budget per committed txn. *)

open Coord

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let cfg ?(group_size = Types.default_config.Types.group_size)
    ?(group_timeout = Types.default_config.Types.group_timeout)
    ?(unsafe_ack = false) () =
  { Types.default_config with Types.group_size; group_timeout; unsafe_ack }

(* Run [scenario] as a process against a fresh ensemble; the simulation is
   bounded by [horizon] because replicas and pingers run forever. *)
let with_ensemble ?(config = Types.default_config) ?(replicas = 3)
    ?(horizon = 300.) ?(seed = 7) scenario =
  let sim = Des.Sim.create ~seed () in
  let ens = Ensemble.create ~replicas ~config sim in
  let finished = ref false in
  ignore
    (Des.Proc.spawn ~name:"scenario" sim (fun () ->
         scenario sim ens;
         finished := true));
  ignore (Des.Sim.run ~until:horizon sim);
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     Alcotest.failf "process %s crashed: %s" who (Printexc.to_string exn));
  if not !finished then Alcotest.fail "scenario did not finish before horizon"

let crash_leader ens =
  match Ensemble.leader_id ens with
  | Some id -> Ensemble.crash_replica ens id
  | None -> Alcotest.fail "no leader to crash"

let ok_write what = function
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "%s: %s" what (Format.asprintf "%a" Types.pp_op_error e)

(* ------------------------------------------------------------------ *)
(* Quorum-gated acks *)

(* An ack is a durability promise: crash the leader the instant a write
   returns and the value must survive the fail-over. *)
let test_ack_implies_quorum_durable () =
  with_ensemble (fun _sim ens ->
      ignore (Ensemble.await_leader ens);
      let c = Ensemble.connect ens ~name:"writer" () in
      ok_write "acked write" (Client.write c ~key:"/acked" ~value:"v1" ());
      crash_leader ens;
      ignore (Ensemble.await_leader ens);
      let r = Ensemble.connect ens ~name:"reader" () in
      (* The new leader serves reads from applied state; give it a few
         rounds to apply the replicated tail. *)
      let rec read tries =
        match Client.get r "/acked" with
        | Some (v, _) -> v
        | None ->
          if tries = 0 then Alcotest.fail "acked write lost by fail-over"
          else begin
            Des.Proc.sleep 1.0;
            read (tries - 1)
          end
      in
      check Alcotest.string "value survives the crash" "v1" (read 30))

(* Crash the leader while the submission is still parked in the open
   batch: the client must not have been acked, and the retry against the
   new leader must land the item exactly once (session dedup). *)
let test_crash_before_flush_no_ack_exactly_once () =
  let config = cfg ~group_size:100 ~group_timeout:0.5 () in
  with_ensemble ~config (fun sim ens ->
      ignore (Ensemble.await_leader ens);
      let c = Ensemble.connect ens ~name:"submitter" () in
      let acked_at = ref None in
      let t0 = Des.Sim.now sim in
      ignore
        (Des.Proc.spawn ~name:"writer" sim (fun () ->
             ignore (Recipes.enqueue c ~queue:"/q" "item");
             acked_at := Some (Des.Sim.now sim)));
      Des.Proc.sleep 0.1;
      check bool_c "no ack while the batch is parked" true (!acked_at = None);
      crash_leader ens;
      ignore (Ensemble.await_leader ens);
      let deadline = t0 +. 120. in
      while !acked_at = None && Des.Sim.now sim < deadline do
        Des.Proc.sleep 0.5
      done;
      check bool_c "retry acked after fail-over" true (!acked_at <> None);
      let r = Ensemble.connect ens ~name:"reader" () in
      let rec children tries =
        let kids = Client.get_children r "/q" in
        if kids <> [] || tries = 0 then kids
        else begin
          Des.Proc.sleep 1.0;
          children (tries - 1)
        end
      in
      check int_c "exactly one item (no loss, no dup)" 1
        (List.length (children 30)))

(* The durability ablation answers at enqueue: the ack arrives before the
   batch could have flushed, and a leader crash inside the window loses
   the acked write. *)
let test_unsafe_ack_acks_early_and_loses () =
  let config = cfg ~group_size:100 ~group_timeout:0.5 ~unsafe_ack:true () in
  with_ensemble ~config (fun sim ens ->
      ignore (Ensemble.await_leader ens);
      let c = Ensemble.connect ens ~name:"submitter" () in
      let acked_at = ref None in
      ignore
        (Des.Proc.spawn ~name:"writer" sim (fun () ->
             match Client.write c ~key:"/risky" ~value:"v" () with
             | Ok _ -> acked_at := Some (Des.Sim.now sim)
             | Error _ -> ()));
      Des.Proc.sleep 0.1;
      check bool_c "acked before the batch flushed" true (!acked_at <> None);
      check bool_c "ablation counted the early ack" true
        ((Ensemble.group_stats ens).Types.unsafe_acks > 0);
      crash_leader ens;
      ignore (Ensemble.await_leader ens);
      Des.Proc.sleep 5.0;
      let r = Ensemble.connect ens ~name:"reader" () in
      check bool_c "acked write is gone (the ablation's lie)" true
        (Client.get r "/risky" = None))

(* ------------------------------------------------------------------ *)
(* Flush triggers: size or timeout, whichever first *)

let test_flush_on_size () =
  let config = cfg ~group_size:4 ~group_timeout:0.5 () in
  with_ensemble ~config (fun sim ens ->
      ignore (Ensemble.await_leader ens);
      let clients =
        List.init 4 (fun i ->
            Ensemble.connect ens ~name:(Printf.sprintf "w%d" i) ())
      in
      let first_ack = ref infinity in
      let remaining = ref 4 in
      let t0 = Des.Sim.now sim in
      List.iteri
        (fun i c ->
          ignore
            (Des.Proc.spawn ~name:(Printf.sprintf "writer%d" i) sim (fun () ->
                 ok_write
                   (Printf.sprintf "write %d" i)
                   (Client.write c
                      ~key:(Printf.sprintf "/k%d" i)
                      ~value:"v" ());
                 first_ack := Float.min !first_ack (Des.Sim.now sim);
                 decr remaining)))
        clients;
      while !remaining > 0 do
        Des.Proc.sleep 0.05
      done;
      let g = Ensemble.group_stats ens in
      check bool_c "a batch flushed full" true (g.Types.flush_full >= 1);
      (* A size-triggered flush answers before the timeout could have. *)
      check bool_c "first ack beat the batch deadline" true
        (!first_ack < t0 +. 0.45))

let test_flush_on_timeout () =
  let config = cfg ~group_size:100 ~group_timeout:0.25 () in
  with_ensemble ~config (fun sim ens ->
      ignore (Ensemble.await_leader ens);
      let c = Ensemble.connect ens ~name:"w" () in
      Des.Proc.sleep 1.0;
      let t0 = Des.Sim.now sim in
      ok_write "solo write" (Client.write c ~key:"/solo" ~value:"v" ());
      let dt = Des.Sim.now sim -. t0 in
      let g = Ensemble.group_stats ens in
      check bool_c "a batch flushed on timeout" true (g.Types.flush_timeout >= 1);
      check bool_c
        (Printf.sprintf "lone command waited out the window (%.3fs)" dt)
        true
        (dt >= 0.25 && dt < 1.0))

(* ------------------------------------------------------------------ *)
(* Batcher properties (qcheck): random client/batch geometries *)

let arb_storm =
  let gen =
    QCheck.Gen.(
      quad (int_range 1 4) (int_range 1 6) (int_range 1 8)
        (oneofl [ 0.002; 0.05; 0.25 ]))
  in
  QCheck.make
    ~print:(fun (c, n, gs, gt) ->
      Printf.sprintf "clients=%d items=%d group_size=%d group_timeout=%.3f" c n
        gs gt)
    gen

let prop_storm_exactly_once_fifo =
  QCheck.Test.make
    ~name:
      "batched submissions are exactly-once, per-client FIFO, and flush \
       accounting balances"
    ~count:12 arb_storm
    (fun (nclients, nitems, group_size, group_timeout) ->
      let config = cfg ~group_size ~group_timeout () in
      let total = nclients * nitems in
      let payload i j = Printf.sprintf "c%d-%d" i j in
      let submitted =
        List.concat_map
          (fun i -> List.init nitems (fun j -> payload i (j + 1)))
          (List.init nclients (fun i -> i + 1))
      in
      let drained = ref [] in
      let gstats = ref None in
      with_ensemble ~config ~horizon:600.
        ~seed:(17 + nclients + (13 * nitems) + group_size)
        (fun sim ens ->
          ignore (Ensemble.await_leader ens);
          let remaining = ref nclients in
          for i = 1 to nclients do
            let c = Ensemble.connect ens ~name:(Printf.sprintf "c%d" i) () in
            ignore
              (Des.Proc.spawn ~name:(Printf.sprintf "producer%d" i) sim
                 (fun () ->
                   for j = 1 to nitems do
                     ignore (Recipes.enqueue c ~queue:"/q" (payload i j))
                   done;
                   decr remaining))
          done;
          while !remaining > 0 do
            Des.Proc.sleep 0.1
          done;
          let consumer = Ensemble.connect ens ~name:"consumer" () in
          let rec drain () =
            match Recipes.dequeue consumer ~queue:"/q" ~timeout:1.0 () with
            | Some (_, p) ->
              drained := p :: !drained;
              drain ()
            | None -> ()
          in
          drain ();
          gstats := Some (Ensemble.group_stats ens));
      let drained = List.rev !drained in
      let sorted l = List.sort compare l in
      (* No loss, no duplication. *)
      sorted drained = sorted submitted
      (* Per-client submit order is preserved through the batches: the
         queue's sequential creates are appended in log order. *)
      && List.for_all
           (fun i ->
             let prefix = Printf.sprintf "c%d-" i in
             let mine =
               List.filter
                 (fun p ->
                   String.length p >= String.length prefix
                   && String.sub p 0 (String.length prefix) = prefix)
                 drained
             in
             mine = List.init nitems (fun j -> payload i (j + 1)))
           (List.init nclients (fun i -> i + 1))
      (* Flush accounting: every flush was triggered by exactly one of
         size or timeout, no batch exceeded the size bound, and every
         enqueue rode some batch. *)
      &&
      match !gstats with
      | None -> false
      | Some g ->
        g.Types.flushes = g.Types.flush_full + g.Types.flush_timeout
        && g.Types.max_batch <= group_size
        && Array.fold_left ( + ) 0 g.Types.batch_hist = g.Types.flushes
        && g.Types.batched_cmds >= total)

(* ------------------------------------------------------------------ *)
(* Controller hot path: deduplicated wake-on-release passes *)

let quick_spec =
  {
    Tropic.Platform.default_spec with
    Tropic.Platform.controllers = 1;
    workers = 2;
    mode = Tropic.Platform.Full;
    coord_config =
      {
        Types.default_config with
        Types.default_session_timeout = 5.0;
      };
    controller_config = Tcloud.Setup.controller_config;
    controller_session_timeout = 3.0;
  }

(* Rival spawns on one host serialize on its write lock; each release
   must wake waiters through the dedup buffer: one batched pass per
   scheduler round, never more passes than waiters woken. *)
let test_wake_passes_deduplicated () =
  let sim = Des.Sim.create ~seed:23 () in
  let inv =
    Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim)
      Tcloud.Setup.small
  in
  let platform =
    Tropic.Platform.create quick_spec inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let finished = ref false in
  ignore
    (Des.Proc.spawn ~name:"scenario" sim (fun () ->
         ignore (Tropic.Platform.await_leader_controller platform);
         let n = 6 in
         let remaining = ref n in
         for k = 0 to n - 1 do
           ignore
             (Des.Proc.spawn ~name:(Printf.sprintf "rival%d" k) sim (fun () ->
                  let vm = Printf.sprintf "rival%d" k in
                  ignore
                    (Tropic.Platform.run_txn platform ~proc:"spawnVM"
                       ~args:
                         (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img"
                            ~mem_mb:128 ~storage:"/storageRoot/storage00000"
                            ~host:"/vmRoot/host00000"));
                  decr remaining))
         done;
         while !remaining > 0 do
           Des.Proc.sleep 0.5
         done;
         let st =
           Tropic.Controller.stats
             (Tropic.Platform.await_leader_controller platform)
         in
         check bool_c "contention woke blocked rivals" true
           (st.Tropic.Controller.wakeups > 0);
         check bool_c "wake passes happened" true
           (st.Tropic.Controller.wake_passes > 0);
         check bool_c
           (Printf.sprintf "passes are deduplicated (%d passes <= %d wakeups)"
              st.Tropic.Controller.wake_passes st.Tropic.Controller.wakeups)
           true
           (st.Tropic.Controller.wake_passes <= st.Tropic.Controller.wakeups);
         finished := true));
  ignore (Des.Sim.run ~until:600. sim);
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     Alcotest.failf "process %s crashed: %s" who (Printexc.to_string exn));
  if not !finished then Alcotest.fail "scenario did not finish before horizon"

(* ------------------------------------------------------------------ *)
(* Write budget: replicated coordination commands per committed txn *)

let budget_sessions = 4

(* One shard, one controller, four workers, logical-only execution. *)
let budget_platform sim =
  let sessions = budget_sessions in
  let size =
    { Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = sessions;
      prepopulated_vms_per_host = 1 }
  in
  let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) size in
  let spec =
    { Tropic.Platform.default_spec with
      Tropic.Platform.controllers = 1;
      workers = 4;
      mode = Tropic.Platform.Logical_only 0.002;
      coord_config =
        { Types.default_config with
          Types.op_service_time = 0.005;
          group_timeout = 0.001 };
      controller_config = Tcloud.Setup.controller_config;
      submit_clients = sessions }
  in
  Tropic.Platform.create spec inv.Tcloud.Setup.env
    ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim

(* Each session toggles its own VM on its own host, so nothing contends
   and every coordination command is write-path overhead.  The budget is
   the leader's commit-index delta over the load: every replicated
   command, whoever issued it.  Each step of a transaction's life — the
   client's request, the controller's input burst and scheduler pass, a
   worker's take and its finish, the burst that folds the result — writes
   through one atomic multi, about 3.75 commands per txn here; the chain
   of single-key commands they replaced cost about 16, far past the
   budget of 6. *)
let test_write_budget () =
  let sessions = budget_sessions and toggles = 8 in
  let sim = Des.Sim.create ~seed:1 () in
  let platform = budget_platform sim in
  let commit_index () =
    let ens = Tropic.Platform.coord platform in
    match Ensemble.leader_id ens with
    | Some id -> Replica.commit_index (Ensemble.replica ens id)
    | None -> Alcotest.fail "no coordination leader"
  in
  let takes () =
    Array.fold_left
      (fun n w -> n + Tropic.Worker.take_attempts w)
      0 (Tropic.Platform.workers platform)
  in
  let committed = ref 0 and finished = ref false in
  ignore
    (Des.Proc.spawn ~name:"scenario" sim (fun () ->
         ignore (Tropic.Platform.await_leader_controller platform);
         Des.Proc.sleep 2.;
         let cmds0 = commit_index () and takes0 = takes () in
         let remaining = ref sessions in
         for h = 0 to sessions - 1 do
           ignore
             (Des.Proc.spawn ~name:(Printf.sprintf "session%d" h) sim (fun () ->
                  let host =
                    Data.Path.to_string (Tcloud.Setup.compute_path h)
                  in
                  let vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
                  for k = 0 to (2 * toggles) - 1 do
                    let proc, args =
                      if k mod 2 = 0 then
                        ("startVM", Tcloud.Procs.start_vm_args ~host ~vm)
                      else ("stopVM", Tcloud.Procs.stop_vm_args ~host ~vm)
                    in
                    match Tropic.Platform.run_txn platform ~proc ~args with
                    | Tropic.Txn.Committed -> incr committed
                    | other ->
                      Alcotest.failf "%s %s ended %s" proc vm
                        (Tropic.Txn.state_to_string other)
                  done;
                  decr remaining))
         done;
         while !remaining > 0 do
           Des.Proc.sleep 0.05
         done;
         let per_txn delta = float_of_int delta /. float_of_int !committed in
         let cmds = per_txn (commit_index () - cmds0) in
         let take_ratio = per_txn (takes () - takes0) in
         check int_c "every toggle committed" (sessions * 2 * toggles) !committed;
         check bool_c
           (Printf.sprintf "replicated commands per txn %.2f <= 6" cmds)
           true (cmds <= 6.);
         check bool_c
           (Printf.sprintf "take attempts per txn %.2f <= 1.5" take_ratio)
           true (take_ratio <= 1.5);
         finished := true));
  ignore (Des.Sim.run ~until:600. sim);
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     Alcotest.failf "process %s crashed: %s" who (Printexc.to_string exn));
  if not !finished then Alcotest.fail "scenario did not finish before horizon"

(* Idle budget: with no requests, the platform should run little more than
   coordination heartbeats and one watched read per idle waiter per second
   (the controller on inputQ, each worker on phyQ): about 130 events per
   virtual second.  Per-tick replica polling and waiters that read, arm a
   watch and re-read every second cost about 550. *)
let test_idle_budget () =
  let sim = Des.Sim.create ~seed:1 () in
  let platform = budget_platform sim in
  let finished = ref false in
  ignore
    (Des.Proc.spawn ~name:"scenario" sim (fun () ->
         ignore (Tropic.Platform.await_leader_controller platform);
         Des.Proc.sleep 5.;
         let window = 30. in
         let before = Des.Sim.executed sim in
         Des.Proc.sleep window;
         let rate = float_of_int (Des.Sim.executed sim - before) /. window in
         check bool_c
           (Printf.sprintf "idle events per virtual s %.0f <= 200" rate)
           true (rate <= 200.);
         finished := true));
  ignore (Des.Sim.run ~until:120. sim);
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     Alcotest.failf "process %s crashed: %s" who (Printexc.to_string exn));
  if not !finished then Alcotest.fail "scenario did not finish before horizon"

let () =
  Alcotest.run "throughput"
    [
      ( "group-commit",
        [
          ( "acked write survives an immediate leader crash",
            `Quick,
            test_ack_implies_quorum_durable );
          ( "crash before flush: no ack, retry lands exactly once",
            `Quick,
            test_crash_before_flush_no_ack_exactly_once );
          ( "unsafe-ack ablation acks early and loses the write",
            `Quick,
            test_unsafe_ack_acks_early_and_loses );
          ("batch flushes when it reaches group_size", `Quick, test_flush_on_size);
          ("lone command flushes at the timeout", `Quick, test_flush_on_timeout);
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_storm_exactly_once_fifo ] );
      ( "controller",
        [
          ( "wake-on-release passes are deduplicated",
            `Quick,
            test_wake_passes_deduplicated );
          ( "write budget: at most 6 replicated commands per txn",
            `Quick,
            test_write_budget );
          ( "idle budget: at most 200 events per virtual s",
            `Quick,
            test_idle_budget );
        ] );
    ]
