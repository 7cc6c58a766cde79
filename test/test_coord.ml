(* Tests for the coordination service: the replicated store, the Raft-style
   replica group, client sessions, and the queue/election recipes. *)

open Coord

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* Run [scenario] as a process against a fresh ensemble; the simulation is
   bounded by [horizon] because replicas and pingers run forever. *)
let with_ensemble ?(config = Types.default_config) ?(replicas = 3)
    ?(horizon = 120.) ?(seed = 7) scenario =
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

let ok_create what = function
  | Ok key -> key
  | Error e -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" Types.pp_op_error e)

(* ------------------------------------------------------------------ *)
(* Store unit tests (the replicated state machine in isolation) *)

let mk_create ?(session = 1) ?(req = 1) ?(ephemeral = false) ?(sequential = false)
    key value =
  Types.Create { session; req; key; value; ephemeral; sequential }

let test_store_create_get () =
  let s = Store.create () in
  (match Store.apply s (mk_create "/a" "1") with
   | Types.Created "/a", [ "/a" ] -> ()
   | _ -> Alcotest.fail "create");
  (match Store.get s "/a" with
   | Some ("1", 1) -> ()
   | _ -> Alcotest.fail "get");
  match Store.apply s (mk_create ~req:2 "/a" "other") with
  | Types.Op_failed Types.Key_exists, [] -> ()
  | _ -> Alcotest.fail "duplicate create"

let test_store_sequential () =
  let s = Store.create () in
  let k1 =
    match Store.apply s (mk_create ~sequential:true ~req:1 "/q/item-" "a") with
    | Types.Created k, _ -> k
    | _ -> Alcotest.fail "seq create 1"
  in
  let k2 =
    match Store.apply s (mk_create ~sequential:true ~req:2 "/q/item-" "b") with
    | Types.Created k, _ -> k
    | _ -> Alcotest.fail "seq create 2"
  in
  check bool_c "ordered" true (k1 < k2);
  check (Alcotest.list string_c) "children in order" [ k1; k2 ]
    (Store.children s "/q")

let test_store_versions () =
  let s = Store.create () in
  ignore (Store.apply s (mk_create "/k" "v1"));
  (match Store.apply s (Types.Write { session = 1; req = 2; key = "/k"; value = "v2"; expect_version = Some 1 }) with
   | Types.Written 2, [ "/k" ] -> ()
   | _ -> Alcotest.fail "cas write");
  (match Store.apply s (Types.Write { session = 1; req = 3; key = "/k"; value = "v3"; expect_version = Some 1 }) with
   | Types.Op_failed Types.Bad_version, [] -> ()
   | _ -> Alcotest.fail "stale cas");
  (match Store.apply s (Types.Delete { session = 1; req = 4; key = "/k"; expect_version = Some 9 }) with
   | Types.Op_failed Types.Bad_version, _ -> ()
   | _ -> Alcotest.fail "stale delete");
  match Store.apply s (Types.Delete { session = 1; req = 5; key = "/k"; expect_version = Some 2 }) with
  | Types.Deleted_ok, [ "/k" ] -> ()
  | _ -> Alcotest.fail "delete"

let test_store_upsert () =
  let s = Store.create () in
  (match Store.apply s (Types.Write { session = 1; req = 1; key = "/new"; value = "x"; expect_version = None }) with
   | Types.Written 1, _ -> ()
   | _ -> Alcotest.fail "upsert creates");
  match Store.apply s (Types.Write { session = 1; req = 2; key = "/new"; value = "y"; expect_version = None }) with
  | Types.Written 2, _ -> ()
  | _ -> Alcotest.fail "upsert bumps version"

let test_store_children_direct_only () =
  let s = Store.create () in
  List.iteri
    (fun i key -> ignore (Store.apply s (mk_create ~req:(i + 1) key "v")))
    [ "/q/a"; "/q/b"; "/q/b/nested"; "/qq/c"; "/other" ];
  check (Alcotest.list string_c) "direct children" [ "/q/a"; "/q/b" ]
    (Store.children s "/q")

let test_store_ephemeral_expiry () =
  let s = Store.create () in
  ignore (Store.apply s (mk_create ~session:5 ~ephemeral:true "/e1" "x"));
  ignore (Store.apply s (mk_create ~session:5 ~req:2 ~ephemeral:true "/e2" "y"));
  ignore (Store.apply s (mk_create ~session:6 "/p" "z"));
  check (Alcotest.list int_c) "owners" [ 5 ] (Store.ephemeral_owners s);
  (match Store.apply s (Types.Expire_session 5) with
   | Types.Expired_ok, changed ->
     check (Alcotest.list string_c) "expired keys" [ "/e1"; "/e2" ]
       (List.sort compare changed)
   | _ -> Alcotest.fail "expire");
  check bool_c "persistent survives" true (Store.exists s "/p");
  check bool_c "ephemeral gone" false (Store.exists s "/e1")

let test_store_dedup () =
  let s = Store.create () in
  let cmd = mk_create ~session:9 ~req:3 ~sequential:true "/q/item-" "v" in
  let r1, _ = Store.apply s cmd in
  let r2, changed2 = Store.apply s cmd in
  check bool_c "same cached result" true (r1 = r2);
  check int_c "no second key created" 1 (Store.size s);
  check int_c "no changed keys on replay" 0 (List.length changed2)

let test_store_parent () =
  check (Alcotest.option string_c) "parent" (Some "/a/b")
    (Store.parent "/a/b/c");
  check (Alcotest.option string_c) "no parent" None (Store.parent "nokey")

(* ------------------------------------------------------------------ *)
(* Ensemble: elections and replication *)

let test_single_leader_elected () =
  with_ensemble (fun _sim ens ->
      let leader = Ensemble.await_leader ens in
      check bool_c "leader id valid" true (leader >= 0 && leader < 3);
      (* Exactly one leader among live replicas once settled. *)
      Des.Proc.sleep 2.;
      let leaders =
        List.filter
          (fun i -> Replica.is_leader (Ensemble.replica ens i))
          [ 0; 1; 2 ]
      in
      check int_c "exactly one leader" 1 (List.length leaders))

let test_client_kv_roundtrip () =
  with_ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"kv" () in
      let key = ok_create "create" (Client.create c ~key:"/app/cfg" ~value:"v1" ()) in
      check string_c "key" "/app/cfg" key;
      (match Client.get c "/app/cfg" with
       | Some ("v1", 1) -> ()
       | _ -> Alcotest.fail "get after create");
      (match Client.write c ~expect_version:1 ~key:"/app/cfg" ~value:"v2" () with
       | Ok 2 -> ()
       | _ -> Alcotest.fail "cas write");
      (match Client.write c ~expect_version:1 ~key:"/app/cfg" ~value:"v3" () with
       | Error Types.Bad_version -> ()
       | _ -> Alcotest.fail "stale cas rejected");
      (match Client.delete c ~key:"/app/cfg" () with
       | Ok () -> ()
       | _ -> Alcotest.fail "delete");
      check (Alcotest.option Alcotest.pass) "gone" None (Client.get c "/app/cfg");
      Client.close c)

let test_replicas_converge () =
  with_ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      for i = 1 to 20 do
        ignore
          (ok_create "create"
             (Client.create c ~key:(Printf.sprintf "/data/k%02d" i)
                ~value:(string_of_int i) ()))
      done;
      (* Give followers time to apply. *)
      Des.Proc.sleep 1.;
      List.iter
        (fun i ->
          let store = Replica.store (Ensemble.replica ens i) in
          check int_c
            (Printf.sprintf "replica %d applied all" i)
            20
            (List.length (Store.children store "/data")))
        [ 0; 1; 2 ];
      Client.close c)

let test_watch_key_fires () =
  with_ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"watcher" () in
      let w = Ensemble.connect ens ~name:"writer" () in
      ignore (ok_create "create" (Client.create w ~key:"/watched" ~value:"0" ()));
      (match Client.get ~watch:true c "/watched" with
       | Some ("0", _) -> ()
       | _ -> Alcotest.fail "watched read returned the wrong value");
      ignore
        (Des.Proc.spawn ~name:"trigger" (Ensemble.sim ens) (fun () ->
             Des.Proc.sleep 0.5;
             ignore (Client.write w ~key:"/watched" ~value:"1" ())));
      let fired = Client.await_change c ~timeout:5. in
      check bool_c "watch fired" true fired;
      Client.close c;
      Client.close w)

let test_watch_children_fires () =
  with_ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"watcher" () in
      let w = Ensemble.connect ens ~name:"writer" () in
      check (Alcotest.list string_c) "empty dir" []
        (Client.get_children ~watch:true c "/dir");
      ignore
        (Des.Proc.spawn ~name:"trigger" (Ensemble.sim ens) (fun () ->
             Des.Proc.sleep 0.5;
             ignore (Client.create w ~key:"/dir/child" ~value:"x" ())));
      check bool_c "child watch fired" true (Client.await_change c ~timeout:5.);
      Client.close c;
      Client.close w)

(* The leader arms a watched read's watch in the same step that serves the
   read, so there is no window between them: a create issued the moment
   an empty watched read returns still fires the watch, and one racing
   the read is either seen by it or fires the watch. *)
let test_watched_read_arms_atomically () =
  with_ensemble (fun sim ens ->
      let c = Ensemble.connect ens ~name:"reader" () in
      let w = Ensemble.connect ens ~name:"writer" () in
      check bool_c "empty watched read" true
        (Client.first_child_value ~watch:true c "/q" = None);
      ignore (ok_create "create" (Client.create w ~key:"/q/a" ~value:"x" ()));
      check bool_c "create right after the read fires" true
        (Client.await_change c ~timeout:0.5);
      List.iteri
        (fun i offset ->
          let dir = Printf.sprintf "/race%d" i in
          ignore
            (Des.Proc.spawn ~name:"racer" sim (fun () ->
                 Des.Proc.sleep offset;
                 ignore (Client.create w ~key:(dir ^ "/a") ~value:"x" ())));
          match Client.first_child_value ~watch:true c dir with
          | Some _ -> ()
          | None ->
            check bool_c
              (Printf.sprintf "racing create at +%gs fires" offset)
              true
              (Client.await_change c ~timeout:0.5))
        [ 0.; 0.0005; 0.001; 0.0015; 0.002; 0.003; 0.005 ];
      Client.close c;
      Client.close w)

(* With nothing to do, nothing should run but heartbeats: a leader blocks
   on its inbox, a follower sleeps until its election deadline, and the
   client sleeps between pings.  Heartbeats cost about 100 events per
   virtual second here (every 50 ms: one pump wake, two appends, two
   replies); replicas polling their inboxes on a 20 ms tick cost over
   400. *)
let test_idle_event_budget () =
  with_ensemble (fun sim ens ->
      ignore (Ensemble.await_leader ens);
      let c = Ensemble.connect ens ~name:"idle" () in
      ignore (Client.get c "/nothing");
      Des.Proc.sleep 2.;
      let window = 20. in
      let before = Des.Sim.executed sim in
      Des.Proc.sleep window;
      let rate = float_of_int (Des.Sim.executed sim - before) /. window in
      check bool_c
        (Printf.sprintf "idle events per virtual s %.0f <= 150" rate)
        true (rate <= 150.);
      Client.close c)

let test_ephemeral_expires_on_close () =
  with_ensemble ~horizon:60. (fun _sim ens ->
      let c = Ensemble.connect ens ~session_timeout:3. ~name:"mortal" () in
      let observer = Ensemble.connect ens ~name:"observer" () in
      ignore
        (ok_create "create"
           (Client.create c ~ephemeral:true ~key:"/presence/me" ~value:"hi" ()));
      check bool_c "present" true
        (Option.is_some (Client.get observer "/presence/me"));
      Client.close c;
      (* Session timeout 3 s + expiry sweep 1 s. *)
      Des.Proc.sleep 6.;
      check bool_c "expired" false
        (Option.is_some (Client.get observer "/presence/me"));
      Client.close observer)

let test_leader_crash_no_committed_loss () =
  with_ensemble ~horizon:120. (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"client" () in
      for i = 1 to 10 do
        ignore
          (ok_create "pre-crash create"
             (Client.create c ~key:(Printf.sprintf "/durable/k%d" i) ~value:"v" ()))
      done;
      let old_leader = Ensemble.await_leader ens in
      Ensemble.crash_replica ens old_leader;
      (* Ops continue against the new leader (the client re-discovers it). *)
      for i = 11 to 15 do
        ignore
          (ok_create "post-crash create"
             (Client.create c ~key:(Printf.sprintf "/durable/k%d" i) ~value:"v" ()))
      done;
      let new_leader = Ensemble.await_leader ens in
      check bool_c "leader changed" true (new_leader <> old_leader);
      check int_c "all 15 keys durable" 15
        (List.length (Client.get_children c "/durable"));
      Client.close c)

let test_crashed_replica_rejoins () =
  with_ensemble ~horizon:120. (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"client" () in
      ignore (ok_create "w1" (Client.create c ~key:"/log/a" ~value:"1" ()));
      let victim =
        (* Crash a follower. *)
        let leader = Ensemble.await_leader ens in
        (leader + 1) mod 3
      in
      Ensemble.crash_replica ens victim;
      for i = 1 to 5 do
        ignore
          (ok_create "while-down"
             (Client.create c ~key:(Printf.sprintf "/log/b%d" i) ~value:"v" ()))
      done;
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 3.;
      let store = Replica.store (Ensemble.replica ens victim) in
      check int_c "rejoined replica caught up" 6
        (List.length (Store.children store "/log"));
      Client.close c)

let test_majority_loss_blocks_then_recovers () =
  with_ensemble ~horizon:200. (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"client" () in
      ignore (ok_create "before" (Client.create c ~key:"/x/a" ~value:"1" ()));
      let leader = Ensemble.await_leader ens in
      let f1 = (leader + 1) mod 3 and f2 = (leader + 2) mod 3 in
      Ensemble.crash_replica ens f1;
      Ensemble.crash_replica ens f2;
      (* Without a quorum nothing commits: run a write attempt with its own
         watchdog. *)
      let attempted = ref false in
      ignore
        (Des.Proc.spawn ~name:"blocked-writer" (Ensemble.sim ens) (fun () ->
             ignore (Client.create c ~key:"/x/blocked" ~value:"2" ());
             attempted := true));
      Des.Proc.sleep 10.;
      check bool_c "write blocked without quorum" false !attempted;
      Ensemble.restart_replica ens f1;
      Des.Proc.sleep 20.;
      check bool_c "write completed after quorum back" true !attempted;
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Recipes *)

let test_queue_fifo () =
  with_ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"queue" () in
      List.iter
        (fun v -> ignore (Recipes.enqueue c ~queue:"/q/test" v))
        [ "a"; "b"; "c" ];
      check int_c "length" 3 (Recipes.queue_length c ~queue:"/q/test");
      (match Recipes.peek c ~queue:"/q/test" with
       | Some (_, "a") -> ()
       | _ -> Alcotest.fail "peek");
      let vals =
        List.init 3 (fun _ ->
            match Recipes.dequeue c ~queue:"/q/test" () with
            | Some (_, v) -> v
            | None -> Alcotest.fail "dequeue")
      in
      check (Alcotest.list string_c) "fifo" [ "a"; "b"; "c" ] vals;
      check int_c "empty" 0 (Recipes.queue_length c ~queue:"/q/test");
      Client.close c)

let test_queue_blocking_dequeue () =
  with_ensemble (fun _sim ens ->
      let consumer = Ensemble.connect ens ~name:"consumer" () in
      let producer = Ensemble.connect ens ~name:"producer" () in
      ignore
        (Des.Proc.spawn ~name:"producer-proc" (Ensemble.sim ens) (fun () ->
             Des.Proc.sleep 2.;
             ignore (Recipes.enqueue producer ~queue:"/q/blk" "late")));
      let t0 = Des.Proc.now () in
      (match Recipes.dequeue consumer ~queue:"/q/blk" () with
       | Some (_, "late") -> ()
       | _ -> Alcotest.fail "blocking dequeue");
      check bool_c "waited for item" true (Des.Proc.now () -. t0 >= 1.5);
      check bool_c "dequeue timeout" true
        (Recipes.dequeue consumer ~queue:"/q/blk" ~timeout:1. () = None);
      Client.close consumer;
      Client.close producer)

let test_queue_concurrent_consumers () =
  with_ensemble ~horizon:200. (fun _sim ens ->
      let producer = Ensemble.connect ens ~name:"producer" () in
      let total = 12 in
      for i = 1 to total do
        ignore (Recipes.enqueue producer ~queue:"/q/mc" (Printf.sprintf "job%d" i))
      done;
      let taken = ref [] in
      let consumers =
        List.init 3 (fun k ->
            let c = Ensemble.connect ens ~name:(Printf.sprintf "cons%d" k) () in
            Des.Proc.spawn
              ~name:(Printf.sprintf "cons%d" k)
              (Ensemble.sim ens)
              (fun () ->
                let rec go () =
                  match Recipes.dequeue c ~queue:"/q/mc" ~timeout:3. () with
                  | Some (_, v) ->
                    taken := v :: !taken;
                    go ()
                  | None -> Client.close c
                in
                go ()))
      in
      List.iter (fun p -> ignore (Des.Proc.await p)) consumers;
      check int_c "each job taken exactly once" total
        (List.length (List.sort_uniq compare !taken));
      check int_c "no duplicates" total (List.length !taken);
      Client.close producer)

let test_election_recipe () =
  with_ensemble ~horizon:120. (fun _sim ens ->
      let a = Ensemble.connect ens ~session_timeout:3. ~name:"ctrl-a" () in
      let b = Ensemble.connect ens ~session_timeout:3. ~name:"ctrl-b" () in
      let ma = Recipes.join_election a ~election:"/elect" ~payload:"A" in
      let mb = Recipes.join_election b ~election:"/elect" ~payload:"B" in
      check bool_c "a is leader" true (Recipes.is_leader a ~election:"/elect" ~member:ma);
      check bool_c "b is not leader" false (Recipes.is_leader b ~election:"/elect" ~member:mb);
      check (Alcotest.option string_c) "payload" (Some "A")
        (Recipes.leader_payload b ~election:"/elect");
      (* A dies; B should take over once the session expires. *)
      let t0 = Des.Proc.now () in
      Client.close a;
      Recipes.await_leadership b ~election:"/elect" ~member:mb;
      let elapsed = Des.Proc.now () -. t0 in
      check bool_c "took over after session expiry" true (elapsed >= 2.5);
      check bool_c "took over promptly" true (elapsed < 10.);
      Client.close b)


(* ------------------------------------------------------------------ *)
(* Model-based property: Store vs a naive map model (no sessions). *)

type store_op =
  | S_create of string * string * bool (* key, value, sequential *)
  | S_write of string * string * int option
  | S_delete of string * int option

let store_op_gen =
  let open QCheck.Gen in
  let key_gen = oneofl [ "/q/a"; "/q/b"; "/r/c"; "/r/d"; "/q/item-" ] in
  let value_gen = oneofl [ "x"; "y"; "z" ] in
  let version_gen = oneof [ return None; map (fun v -> Some v) (int_range 1 3) ] in
  frequency
    [
      3, map3 (fun k v s -> S_create (k, v, s)) key_gen value_gen bool;
      3, map3 (fun k v ver -> S_write (k, v, ver)) key_gen value_gen version_gen;
      2, map2 (fun k ver -> S_delete (k, ver)) key_gen version_gen;
    ]

let store_ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | S_create (k, v, s) ->
               Printf.sprintf "create %s=%s seq=%b" k v s
             | S_write (k, v, ver) ->
               Printf.sprintf "write %s=%s v=%s" k v
                 (match ver with Some n -> string_of_int n | None -> "-")
             | S_delete (k, ver) ->
               Printf.sprintf "delete %s v=%s" k
                 (match ver with Some n -> string_of_int n | None -> "-"))
           ops))
    QCheck.Gen.(list_size (int_bound 40) store_op_gen)

let store_model_prop =
  QCheck.Test.make ~name:"store agrees with reference map" ~count:300
    store_ops_arbitrary (fun ops ->
      let store = Store.create () in
      let req = ref 0 in
      (* model: key -> (value, version) *)
      let model = Hashtbl.create 16 in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          incr req;
          match op with
          | S_create (key, value, sequential) ->
            let result, _ =
              Store.apply store
                (Types.Create
                   { session = 1; req = !req; key; value;
                     ephemeral = false; sequential })
            in
            (match result with
             | Types.Created final ->
               let expected =
                 if sequential then begin
                   incr seq;
                   (* The suffix must make the key fresh and ordered. *)
                   not (Hashtbl.mem model final)
                   && String.length final > String.length key
                 end
                 else not (Hashtbl.mem model key)
               in
               Hashtbl.replace model final (value, 1);
               expected
             | Types.Op_failed Types.Key_exists ->
               (not sequential) && Hashtbl.mem model key
             | _ -> false)
          | S_write (key, value, expect_version) ->
            let result, _ =
              Store.apply store
                (Types.Write { session = 1; req = !req; key; value; expect_version })
            in
            (match result, Hashtbl.find_opt model key, expect_version with
             | Types.Written v, Some (_, mv), None ->
               Hashtbl.replace model key (value, mv + 1);
               v = mv + 1
             | Types.Written 1, None, None ->
               Hashtbl.replace model key (value, 1);
               true
             | Types.Written v, Some (_, mv), Some expected ->
               if mv = expected then begin
                 Hashtbl.replace model key (value, mv + 1);
                 v = mv + 1
               end
               else false
             | Types.Op_failed Types.Bad_version, Some (_, mv), Some expected ->
               mv <> expected
             | Types.Op_failed Types.Key_missing, None, Some _ -> true
             | _, _, _ -> false)
          | S_delete (key, expect_version) ->
            let result, _ =
              Store.apply store
                (Types.Delete { session = 1; req = !req; key; expect_version })
            in
            (match result, Hashtbl.find_opt model key, expect_version with
             | Types.Deleted_ok, Some (_, mv), Some expected ->
               if mv = expected then begin
                 Hashtbl.remove model key;
                 true
               end
               else false
             | Types.Deleted_ok, Some _, None ->
               Hashtbl.remove model key;
               true
             | Types.Op_failed Types.Bad_version, Some (_, mv), Some expected ->
               mv <> expected
             | Types.Op_failed Types.Key_missing, None, _ -> true
             | _, _, _ -> false))
        ops
      && Store.size store = Hashtbl.length model)

(* ------------------------------------------------------------------ *)
(* Chaos property: random single-replica crashes and restarts never lose
   an acknowledged write (a quorum stays up throughout). *)

let test_chaos_single_crashes () =
  List.iter
    (fun seed ->
      with_ensemble ~horizon:400. ~seed (fun sim ens ->
          let client = Ensemble.connect ens ~name:"chaos-writer" () in
          let acked = ref [] in
          let writer =
            Des.Proc.spawn ~name:"writer" sim (fun () ->
                for i = 1 to 40 do
                  match
                    Client.create client
                      ~key:(Printf.sprintf "/chaos/k%03d" i)
                      ~value:(string_of_int i) ()
                  with
                  | Ok key ->
                    acked := key :: !acked;
                    Des.Proc.sleep 0.3
                  | Error _ -> Des.Proc.sleep 0.3
                done)
          in
          ignore
            (Des.Proc.spawn ~name:"chaos" sim (fun () ->
                 let rng = Random.State.make [| seed * 7 |] in
                 for _ = 1 to 4 do
                   Des.Proc.sleep (1. +. Random.State.float rng 2.);
                   let victim = Random.State.int rng 3 in
                   Ensemble.crash_replica ens victim;
                   Des.Proc.sleep (1. +. Random.State.float rng 2.);
                   Ensemble.restart_replica ens victim
                 done));
          (match Des.Proc.await writer with
           | Ok () -> ()
           | Error e -> raise e);
          (* Let the cluster settle, then every acked key must be there. *)
          Des.Proc.sleep 5.;
          List.iter
            (fun key ->
              match Client.get client key with
              | Some _ -> ()
              | None -> Alcotest.failf "acked key %s lost (seed %d)" key seed)
            !acked;
          check bool_c "most writes acked" true (List.length !acked >= 35);
          Client.close client))
    [ 101; 202; 303 ]


(* ------------------------------------------------------------------ *)
(* Partitions: divergent logs must converge, acked writes must survive *)

let test_partitioned_leader_steps_down () =
  with_ensemble ~horizon:200. (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"part-writer" () in
      ignore (ok_create "before" (Client.create c ~key:"/p/before" ~value:"1" ()));
      let old_leader = Ensemble.await_leader ens in
      let others = List.filter (fun i -> i <> old_leader) [ 0; 1; 2 ] in
      (* Cut the leader off.  The majority side elects a new leader; the
         old one cannot commit anything. *)
      Des.Net.partition (Ensemble.net ens) [ old_leader ] others;
      Des.Proc.sleep 3.;
      let minority = Ensemble.replica ens old_leader in
      let new_leader =
        List.find
          (fun i -> Replica.is_leader (Ensemble.replica ens i))
          others
      in
      check bool_c "majority elected a new leader" true
        (new_leader <> old_leader);
      check bool_c "new term is higher" true
        (Replica.term (Ensemble.replica ens new_leader) > 0);
      (* Writes continue on the majority side. *)
      ignore (ok_create "during" (Client.create c ~key:"/p/during" ~value:"2" ()));
      (* Heal: the deposed leader must step down and adopt the new log. *)
      Des.Net.heal (Ensemble.net ens);
      Des.Proc.sleep 3.;
      check bool_c "old leader stepped down" false (Replica.is_leader minority);
      check bool_c "old leader caught up" true
        (Coord.Store.exists (Replica.store minority) "/p/during");
      ignore (ok_create "after" (Client.create c ~key:"/p/after" ~value:"3" ()));
      List.iter
        (fun key ->
          check bool_c (key ^ " present") true
            (Option.is_some (Client.get c key)))
        [ "/p/before"; "/p/during"; "/p/after" ];
      Client.close c)

let test_divergent_log_truncated () =
  with_ensemble ~horizon:300. (fun sim ens ->
      let c = Ensemble.connect ens ~name:"div-writer" () in
      ignore (ok_create "w0" (Client.create c ~key:"/d/base" ~value:"0" ()));
      let old_leader = Ensemble.await_leader ens in
      let others = List.filter (fun i -> i <> old_leader) [ 0; 1; 2 ] in
      Des.Net.partition (Ensemble.net ens) [ old_leader ] others;
      (* A writer talking only to the minority leader: its submissions can
         be appended to the stale leader's log but never commit. *)
      let doomed = Ensemble.connect ens ~name:"doomed" () in
      let doomed_acked = ref false in
      ignore
        (Des.Proc.spawn ~name:"doomed-writer" sim (fun () ->
             (* Force the doomed client onto the minority. *)
             Des.Net.partition (Ensemble.net ens)
               [ Coord.Client.session_id doomed ]
               others;
             match Client.create doomed ~key:"/d/ghost" ~value:"x" () with
             | Ok _ -> doomed_acked := true
             | Error _ -> ()));
      Des.Proc.sleep 4.;
      (* The client gives up before the partition heals: its command sits
         uncommitted in the stale leader's log.  (If it kept retrying, the
         retry machinery would legitimately deliver it after the heal.) *)
      Client.close doomed;
      check bool_c "ghost never acked" false !doomed_acked;
      (* Meanwhile the majority commits real writes. *)
      for i = 1 to 5 do
        ignore
          (ok_create "majority write"
             (Client.create c ~key:(Printf.sprintf "/d/real%d" i) ~value:"y" ()))
      done;
      Des.Net.heal (Ensemble.net ens);
      Des.Proc.sleep 5.;
      (* The unacked write must not exist anywhere after the stale
         leader's divergent suffix is truncated. *)
      List.iter
        (fun i ->
          check bool_c
            (Printf.sprintf "replica %d has no ghost" i)
            false
            (Coord.Store.exists (Replica.store (Ensemble.replica ens i)) "/d/ghost"))
        [ 0; 1; 2 ];
      List.iter
        (fun i ->
          check int_c
            (Printf.sprintf "replica %d converged" i)
            6
            (List.length (Coord.Store.children (Replica.store (Ensemble.replica ens i)) "/d")))
        [ 0; 1; 2 ];
      Client.close c)

let test_graceful_disconnect_immediate () =
  with_ensemble ~horizon:60. (fun _sim ens ->
      let c = Ensemble.connect ens ~session_timeout:30. ~name:"polite" () in
      let observer = Ensemble.connect ens ~name:"observer" () in
      ignore
        (ok_create "create"
           (Client.create c ~ephemeral:true ~key:"/presence/polite" ~value:"hi" ()));
      check bool_c "present" true
        (Option.is_some (Client.get observer "/presence/polite"));
      let t0 = Des.Proc.now () in
      Client.disconnect c;
      (* Immediately gone — no 30 s session timeout. *)
      Des.Proc.sleep 0.5;
      check bool_c "ephemeral cleaned immediately" false
        (Option.is_some (Client.get observer "/presence/polite"));
      check bool_c "well before the session timeout" true
        (Des.Proc.now () -. t0 < 2.);
      Client.close observer)

(* ------------------------------------------------------------------ *)
(* Log compaction and snapshot installation *)

let compaction_config =
  { Types.default_config with Types.snapshot_threshold = 25 }

let with_compacting_ensemble ?(horizon = 200.) scenario =
  let sim = Des.Sim.create ~seed:9 () in
  let ens = Ensemble.create ~replicas:3 ~config:compaction_config sim in
  let finished = ref false in
  ignore
    (Des.Proc.spawn ~name:"scenario" sim (fun () ->
         scenario ens;
         finished := true));
  ignore (Des.Sim.run ~until:horizon sim);
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     Alcotest.failf "process %s crashed: %s" who (Printexc.to_string exn));
  if not !finished then Alcotest.fail "scenario did not finish"

let write_n ?(from = 1) client n =
  for i = from to from + n - 1 do
    ignore
      (ok_create "write"
         (Client.create client ~key:(Printf.sprintf "/cp/k%04d" i) ~value:"v" ()))
  done

let test_compaction_bounds_log () =
  with_compacting_ensemble (fun ens ->
      let c = Ensemble.connect ens ~name:"compact-writer" () in
      write_n c 120;
      Des.Proc.sleep 2.;
      List.iter
        (fun i ->
          let r = Ensemble.replica ens i in
          check bool_c
            (Printf.sprintf "replica %d log bounded" i)
            true
            (Replica.log_length r <= 60);
          check bool_c (Printf.sprintf "replica %d snapshotted" i) true
            (Replica.has_snapshot r);
          check bool_c (Printf.sprintf "replica %d base advanced" i) true
            (Replica.log_base r > 0);
          check int_c
            (Printf.sprintf "replica %d has all keys" i)
            120
            (List.length (Store.children (Replica.store r) "/cp")))
        [ 0; 1; 2 ];
      Client.close c)

let test_snapshot_install_catches_up_follower () =
  with_compacting_ensemble (fun ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      write_n c 10;
      let leader = Ensemble.await_leader ens in
      let victim = (leader + 1) mod 3 in
      Ensemble.crash_replica ens victim;
      (* Enough writes that the victim's gap is compacted away on the
         survivors: catching up requires a snapshot transfer. *)
      write_n ~from:11 c 100;
      Des.Proc.sleep 1.;
      check bool_c "gap compacted on leader" true
        (Replica.log_base (Ensemble.replica ens leader) > 10);
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 5.;
      let r = Ensemble.replica ens victim in
      check int_c "victim caught up via snapshot" 110
        (List.length (Store.children (Replica.store r) "/cp"));
      check bool_c "victim adopted a snapshot" true (Replica.has_snapshot r);
      (* And the cluster keeps serving. *)
      write_n ~from:111 c 5;
      check int_c "post-recovery writes" 115
        (List.length (Client.get_children c "/cp"));
      Client.close c)

let test_restart_from_snapshot () =
  with_compacting_ensemble (fun ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      write_n c 80;
      Des.Proc.sleep 1.;
      (* Restart a follower in place: it must rebuild from its own snapshot
         plus the retained log tail, not from index zero. *)
      let leader = Ensemble.await_leader ens in
      let victim = (leader + 2) mod 3 in
      check bool_c "victim snapshotted before crash" true
        (Replica.has_snapshot (Ensemble.replica ens victim));
      Ensemble.crash_replica ens victim;
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 3.;
      check int_c "state rebuilt" 80
        (List.length
           (Store.children (Replica.store (Ensemble.replica ens victim)) "/cp"));
      Client.close c)

(* The openraft rejoin-bug family: a lagging follower whose gap was
   compacted away must rejoin via snapshot install — including when it
   crashes again mid-install and comes back to an even bigger gap. *)
let test_rejoin_after_compaction_repeated_crashes () =
  with_compacting_ensemble ~horizon:300. (fun ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      write_n c 10;
      let leader = Ensemble.await_leader ens in
      let victim = (leader + 1) mod 3 in
      Ensemble.crash_replica ens victim;
      (* Push the survivors far past the victim's log so its entire gap
         lives only in snapshots. *)
      write_n ~from:11 c 60;
      Des.Proc.sleep 1.;
      check bool_c "gap compacted away on leader" true
        (Replica.log_base (Ensemble.replica ens leader) > 10);
      (* First rejoin attempt dies almost immediately — before the
         snapshot install completes. *)
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 0.05;
      Ensemble.crash_replica ens victim;
      (* The cluster keeps committing while the victim is down again, so
         the second rejoin faces a fresh gap and a newer snapshot. *)
      write_n ~from:71 c 60;
      Des.Proc.sleep 1.;
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 5.;
      let r = Ensemble.replica ens victim in
      check int_c "victim converged after repeated crashes" 130
        (List.length (Store.children (Replica.store r) "/cp"));
      check bool_c "victim adopted a snapshot" true (Replica.has_snapshot r);
      check bool_c "victim's log base advanced" true (Replica.log_base r > 10);
      (* The rejoined follower really participates: with the other
         follower down, it is needed for quorum. *)
      let leader2 = Ensemble.await_leader ens in
      let other =
        List.find (fun i -> i <> leader2 && i <> victim) [ 0; 1; 2 ]
      in
      Ensemble.crash_replica ens other;
      write_n ~from:131 c 5;
      check int_c "quorum held by the rejoined follower" 135
        (List.length (Client.get_children c "/cp"));
      Ensemble.restart_replica ens other;
      Des.Proc.sleep 2.;
      Client.close c)

let store_snapshot_roundtrip_prop =
  QCheck.Test.make ~name:"store snapshot codec roundtrip" ~count:100
    store_ops_arbitrary (fun ops ->
      let store = Store.create () in
      let req = ref 0 in
      List.iter
        (fun op ->
          incr req;
          ignore
            (match op with
             | S_create (key, value, sequential) ->
               Store.apply store
                 (Types.Create
                    { session = 1; req = !req; key; value;
                      ephemeral = false; sequential })
             | S_write (key, value, expect_version) ->
               Store.apply store
                 (Types.Write { session = 1; req = !req; key; value; expect_version })
             | S_delete (key, expect_version) ->
               Store.apply store
                 (Types.Delete { session = 1; req = !req; key; expect_version })))
        ops;
      match Result.bind (Data.Sexp.of_string (Data.Sexp.to_string (Store.to_sexp store))) Store.of_sexp with
      | Error _ -> false
      | Ok restored ->
        Store.size restored = Store.size store
        (* Replays after the snapshot behave identically: dedup survives. *)
        && Store.apply restored
             (Types.Create
                { session = 1; req = !req; key = "/any"; value = "v";
                  ephemeral = false; sequential = false })
           = Store.apply store
               (Types.Create
                  { session = 1; req = !req; key = "/any"; value = "v";
                    ephemeral = false; sequential = false }))

(* ------------------------------------------------------------------ *)
(* Atomic multi-op commands *)

let op_create ?(ephemeral = false) ?(sequential = false) key value =
  Types.Op_create { key; value; ephemeral; sequential }

let op_write key value = Types.Op_write { key; value }
let op_delete ?(must_exist = true) key = Types.Op_delete { key; must_exist }

let mk_multi ?(session = 1) ~req ops = Types.Multi { session; req; ops }

(* Name the next sequential create would get, probed without touching
   [s]'s own counter: the counter is part of the snapshot, so a restored
   copy answers for the original. *)
let next_seq_name s =
  match
    Result.bind
      (Data.Sexp.of_string (Data.Sexp.to_string (Store.to_sexp s)))
      Store.of_sexp
  with
  | Error e -> Alcotest.failf "snapshot: %s" e
  | Ok copy ->
    (match Store.apply copy (mk_create ~session:99 ~sequential:true "/probe/n-" "") with
     | Types.Created k, _ -> k
     | _ -> Alcotest.fail "probe create")

let test_multi_all_or_nothing () =
  let s = Store.create () in
  ignore (Store.apply s (mk_create ~req:1 "/a" "1"));
  ignore (Store.apply s (mk_create ~req:2 ~sequential:true "/q/item-" "x"));
  let seq_before = next_seq_name s in
  (match
     Store.apply s
       (mk_multi ~req:3
          [ op_create ~sequential:true "/q/item-" "y"; op_write "/a" "2";
            op_delete "/a"; op_delete "/missing" ])
   with
   | Types.Multi_failed (3, Types.Key_missing), [] -> ()
   | r, _ -> Alcotest.failf "expected failure at op 3, got %a" Types.pp_op_result r);
  check (Alcotest.option (Alcotest.pair string_c int_c)) "write and delete undone"
    (Some ("1", 1)) (Store.get s "/a");
  check int_c "sequential create undone" 1 (List.length (Store.children s "/q"));
  check string_c "sequential counter restored" seq_before (next_seq_name s);
  (* A failing create also rolls back; the tolerant delete of an absent
     key does not fail. *)
  (match
     Store.apply s
       (mk_multi ~req:4
          [ op_delete ~must_exist:false "/missing"; op_write "/b" "new";
            op_create "/a" "dup" ])
   with
   | Types.Multi_failed (2, Types.Key_exists), [] -> ()
   | r, _ -> Alcotest.failf "expected failure at op 2, got %a" Types.pp_op_result r);
  check bool_c "upsert undone" false (Store.exists s "/b");
  match
    Store.apply s
      (mk_multi ~req:5
         [ op_delete ~must_exist:false "/missing"; op_write "/a" "3";
           op_create ~sequential:true "/q/item-" "z" ])
  with
  | Types.Multi_ok [ Types.Noop_ok; Types.Written 2; Types.Created k ], changed ->
    check (Alcotest.list string_c) "changed keys" [ "/a"; k ] changed;
    check int_c "item appended" 2 (List.length (Store.children s "/q"))
  | r, _ -> Alcotest.failf "expected success, got %a" Types.pp_op_result r

(* Each changed key is reported once per multi, however many ops touch
   it, and the leader fires each armed watch once. *)
let test_multi_changed_keys_once () =
  let s = Store.create () in
  match
    Store.apply s
      (mk_multi ~req:1
         [ op_write "/w/x" "1"; op_write "/w/x" "2"; op_create "/w/y" "v";
           op_delete "/w/x"; op_create "/w/x" "3" ])
  with
  | Types.Multi_ok _, changed ->
    check (Alcotest.list string_c) "one entry per key" [ "/w/x"; "/w/y" ] changed
  | r, _ -> Alcotest.failf "multi: %a" Types.pp_op_result r

let test_multi_watch_fires_once () =
  with_ensemble (fun _sim ens ->
      let watcher = Ensemble.connect ens ~name:"watcher" () in
      let writer = Ensemble.connect ens ~name:"writer" () in
      ignore (ok_create "create" (Client.create writer ~key:"/w/x" ~value:"0" ()));
      ignore (Client.get ~watch:true watcher "/w/x");
      ignore (Client.get_children ~watch:true watcher "/w");
      (match
         Client.multi writer
           [ op_write "/w/x" "1"; op_write "/w/x" "2"; op_create "/w/y" "v" ]
       with
       | Ok _ -> ()
       | Error (i, e) ->
         Alcotest.failf "multi failed at %d: %a" i Types.pp_op_error e);
      Des.Proc.sleep 2.;
      let events = ref [] in
      let rec drain () =
        match Des.Channel.recv_timeout (Client.events watcher) ~timeout:0.01 with
        | Some ev -> events := ev :: !events; drain ()
        | None -> ()
      in
      drain ();
      let count kind watched =
        List.length
          (List.filter
             (fun (ev : Types.watch_event) -> ev.kind = kind && ev.watched = watched)
             !events)
      in
      check int_c "key watch fired once" 1 (count Types.Key_watch "/w/x");
      check int_c "child watch fired once" 1 (count Types.Child_watch "/w");
      check int_c "nothing else fired" 2 (List.length !events);
      Client.close watcher;
      Client.close writer)

let test_multi_dedup_exactly_once () =
  let s = Store.create () in
  let cmd =
    mk_multi ~session:4 ~req:7
      [ op_create ~sequential:true "/q/item-" "v"; op_write "/k" "w" ]
  in
  let r1, _ = Store.apply s cmd in
  let r2, changed2 = Store.apply s cmd in
  check bool_c "retry returns the cached result" true (r1 = r2);
  check (Alcotest.list string_c) "retry changes nothing" [] changed2;
  check int_c "one item" 1 (List.length (Store.children s "/q"));
  check (Alcotest.option (Alcotest.pair string_c int_c)) "one write"
    (Some ("w", 1)) (Store.get s "/k")

(* The multi commits but its ack never arrives (the client is cut off
   from the leader right after sending), and the leader dies.  The
   client's retry reaches the new leader, which appends the command a
   second time; the dedup table answers from its cache, so the multi
   applies exactly once: one sequential item, the write at version 1. *)
let test_multi_exactly_once_across_leader_change () =
  with_ensemble ~horizon:300. (fun sim ens ->
      let leader = Ensemble.await_leader ens in
      let c = Ensemble.connect ens ~name:"submitter" () in
      let acked = ref None in
      ignore
        (Des.Proc.spawn ~name:"multi" sim (fun () ->
             acked :=
               Some
                 (Client.multi c
                    [ op_create ~sequential:true "/q/item-" "v";
                      op_write "/k" "w" ])));
      (* The request is on the wire; every reply to it will be dropped. *)
      Des.Proc.sleep 0.00001;
      Des.Net.partition (Ensemble.net ens) [ Client.session_id c ] [ leader ];
      Des.Proc.sleep 0.2;
      check bool_c "committed but not acked" true
        (!acked = None
        && Store.exists (Replica.store (Ensemble.replica ens leader)) "/k");
      Ensemble.crash_replica ens leader;
      Des.Net.heal (Ensemble.net ens);
      let deadline = Des.Sim.now sim +. 120. in
      while !acked = None && Des.Sim.now sim < deadline do
        Des.Proc.sleep 0.5
      done;
      (match !acked with
       | Some (Ok [ Types.Created _; Types.Written 1 ]) -> ()
       | Some (Ok rs) ->
         Alcotest.failf "unexpected results: %a" Types.pp_op_result (Types.Multi_ok rs)
       | Some (Error (i, e)) ->
         Alcotest.failf "multi failed at %d: %a" i Types.pp_op_error e
       | None -> Alcotest.fail "multi never acked");
      let r = Ensemble.connect ens ~name:"reader" () in
      check int_c "exactly one item" 1 (List.length (Client.get_children r "/q"));
      check (Alcotest.option (Alcotest.pair string_c int_c)) "written once"
        (Some ("w", 1)) (Client.get r "/k");
      Client.close c;
      Client.close r)

(* Ephemeral creates inside a multi belong to the submitting session and
   expire with it; the multi's persistent ops stay. *)
let test_multi_ephemeral_expires () =
  let s = Store.create () in
  ignore
    (Store.apply s
       (mk_multi ~session:5 ~req:1
          [ op_create ~ephemeral:true "/e/1" "x"; op_create "/p" "y" ]));
  check (Alcotest.list int_c) "owner" [ 5 ] (Store.ephemeral_owners s);
  ignore (Store.apply s (Types.Expire_session 5));
  check bool_c "ephemeral gone" false (Store.exists s "/e/1");
  check bool_c "persistent stays" true (Store.exists s "/p");
  with_ensemble ~horizon:60. (fun _sim ens ->
      let c = Ensemble.connect ens ~session_timeout:3. ~name:"mortal" () in
      let observer = Ensemble.connect ens ~name:"observer" () in
      (match
         Client.multi c
           [ op_create ~ephemeral:true "/presence/me" "hi"; op_write "/log" "1" ]
       with
       | Ok _ -> ()
       | Error (i, e) ->
         Alcotest.failf "multi failed at %d: %a" i Types.pp_op_error e);
      check bool_c "present" true
        (Option.is_some (Client.get observer "/presence/me"));
      Client.close c;
      Des.Proc.sleep 6.;
      check bool_c "expired with the session" false
        (Option.is_some (Client.get observer "/presence/me"));
      check bool_c "persistent op stays" true
        (Option.is_some (Client.get observer "/log"));
      Client.close observer)

let test_multi_snapshot_roundtrip () =
  let s = Store.create () in
  let ok_cmd =
    mk_multi ~session:1 ~req:1
      [ op_create ~sequential:true "/q/item-" "a"; op_write "/k" "v";
        op_delete ~must_exist:false "/absent" ]
  in
  let failed_cmd = mk_multi ~session:2 ~req:1 [ op_write "/j" "v"; op_delete "/absent" ] in
  let ok_result, _ = Store.apply s ok_cmd in
  let failed_result, _ = Store.apply s failed_cmd in
  let text = Data.Sexp.to_string (Store.to_sexp s) in
  match Result.bind (Data.Sexp.of_string text) Store.of_sexp with
  | Error e -> Alcotest.failf "restore: %s" e
  | Ok restored ->
    check string_c "codec is stable" text
      (Data.Sexp.to_string (Store.to_sexp restored));
    check bool_c "cached multi result survives" true
      (fst (Store.apply restored ok_cmd) = ok_result);
    check bool_c "cached multi failure survives" true
      (fst (Store.apply restored failed_cmd) = failed_result);
    check int_c "no re-execution" 1 (List.length (Store.children restored "/q"))

(* qcheck: a multi either equals its ops applied one by one as single
   commands (same results, same state, same sequential counter), or fails
   at the first op a single command would fail at and leaves the state —
   counter included — as it was. *)
let multi_op_gen =
  let open QCheck.Gen in
  let key_gen = oneofl [ "/m/a"; "/m/b"; "/m/c"; "/m/item-" ] in
  let value_gen = oneofl [ "x"; "y" ] in
  frequency
    [
      (3, map3 (fun k v sq -> op_create ~sequential:sq k v) key_gen value_gen bool);
      (2, map2 op_write key_gen value_gen);
      (2, map2 (fun k m -> op_delete ~must_exist:m k) key_gen bool);
    ]

let print_op = function
  | Types.Op_create { key; value; sequential; _ } ->
    Printf.sprintf "create %s=%s seq=%b" key value sequential
  | Types.Op_write { key; value } -> Printf.sprintf "write %s=%s" key value
  | Types.Op_delete { key; must_exist } ->
    Printf.sprintf "delete %s must=%b" key must_exist

let multi_arbitrary =
  QCheck.make
    ~print:(fun (pre, ops) ->
      Printf.sprintf "pre [%s] multi [%s]"
        (String.concat "; " (List.map print_op pre))
        (String.concat "; " (List.map print_op ops)))
    QCheck.Gen.(
      pair (list_size (int_bound 6) multi_op_gen)
        (list_size (int_range 1 6) multi_op_gen))

let multi_atomic_prop =
  QCheck.Test.make ~name:"multi = its ops one by one, or no change at all"
    ~count:300 multi_arbitrary (fun (pre, ops) ->
      let req = ref 0 in
      let single store op =
        incr req;
        let cmd =
          match op with
          | Types.Op_create { key; value; ephemeral; sequential } ->
            Types.Create { session = 1; req = !req; key; value; ephemeral; sequential }
          | Types.Op_write { key; value } ->
            Types.Write { session = 1; req = !req; key; value; expect_version = None }
          | Types.Op_delete { key; must_exist } ->
            if must_exist || Store.exists store key then
              Types.Delete { session = 1; req = !req; key; expect_version = None }
            else Types.Noop
        in
        fst (Store.apply store cmd)
      in
      let store = Store.create () and twin = Store.create () in
      List.iter (fun op -> ignore (single store op); ignore (single twin op)) pre;
      let view st =
        ( List.map (Store.get st) [ "/m/a"; "/m/b"; "/m/c" ],
          List.map (fun k -> (k, Store.get st k)) (Store.children st "/m"),
          next_seq_name st )
      in
      let before = view store in
      incr req;
      match fst (Store.apply store (mk_multi ~session:2 ~req:!req ops)) with
      | Types.Multi_ok results ->
        let expected = List.map (single twin) ops in
        results = expected && view store = view twin
      | Types.Multi_failed (i, e) ->
        let rec first_failure j = function
          | [] -> None
          | op :: rest ->
            (match single twin op with
             | Types.Op_failed e -> Some (j, e)
             | _ -> first_failure (j + 1) rest)
        in
        first_failure 0 ops = Some (i, e) && view store = before
      | _ -> false)

let suite =
  [
    ("store: create/get", `Quick, test_store_create_get);
    ("store: sequential keys", `Quick, test_store_sequential);
    ("store: versions and CAS", `Quick, test_store_versions);
    ("store: upsert", `Quick, test_store_upsert);
    ("store: direct children only", `Quick, test_store_children_direct_only);
    ("store: ephemeral expiry", `Quick, test_store_ephemeral_expiry);
    ("store: request dedup", `Quick, test_store_dedup);
    ("store: parent", `Quick, test_store_parent);
    ("ensemble: single leader elected", `Quick, test_single_leader_elected);
    ("client: kv roundtrip", `Quick, test_client_kv_roundtrip);
    ("ensemble: replicas converge", `Quick, test_replicas_converge);
    ("watch: key", `Quick, test_watch_key_fires);
    ("watch: children", `Quick, test_watch_children_fires);
    ("watch: watched read arms atomically", `Quick, test_watched_read_arms_atomically);
    ("idle: event budget", `Quick, test_idle_event_budget);
    ("session: ephemeral expires on close", `Quick, test_ephemeral_expires_on_close);
    ("session: graceful disconnect is immediate", `Quick, test_graceful_disconnect_immediate);
    ("failover: no committed writes lost", `Quick, test_leader_crash_no_committed_loss);
    ("failover: crashed replica rejoins", `Quick, test_crashed_replica_rejoins);
    ("failover: majority loss blocks, recovers", `Quick, test_majority_loss_blocks_then_recovers);
    ("recipe: queue fifo", `Quick, test_queue_fifo);
    ("recipe: queue blocking dequeue", `Quick, test_queue_blocking_dequeue);
    ("recipe: queue concurrent consumers", `Quick, test_queue_concurrent_consumers);
    ("recipe: leader election", `Quick, test_election_recipe);
    QCheck_alcotest.to_alcotest store_model_prop;
    ("chaos: crashes lose no acked writes", `Slow, test_chaos_single_crashes);
    ("partition: minority leader steps down", `Quick, test_partitioned_leader_steps_down);
    ("partition: divergent log truncated", `Quick, test_divergent_log_truncated);
    ("compaction: log stays bounded", `Quick, test_compaction_bounds_log);
    ("compaction: snapshot install catch-up", `Quick, test_snapshot_install_catches_up_follower);
    ("compaction: restart from snapshot", `Quick, test_restart_from_snapshot);
    ( "compaction: rejoin after repeated crashes mid-install",
      `Quick,
      test_rejoin_after_compaction_repeated_crashes );
    QCheck_alcotest.to_alcotest store_snapshot_roundtrip_prop;
    ("multi: all or nothing", `Quick, test_multi_all_or_nothing);
    ("multi: changed keys listed once", `Quick, test_multi_changed_keys_once);
    ("multi: one watch firing per changed key", `Quick, test_multi_watch_fires_once);
    ("multi: request dedup", `Quick, test_multi_dedup_exactly_once);
    ( "multi: exactly once across a leader change",
      `Quick,
      test_multi_exactly_once_across_leader_change );
    ("multi: ephemerals expire with the session", `Quick, test_multi_ephemeral_expires);
    ("multi: snapshot round-trip with a cached result", `Quick, test_multi_snapshot_roundtrip);
    QCheck_alcotest.to_alcotest multi_atomic_prop;
  ]

let () = Alcotest.run "coord" [ ("coord", suite) ]
