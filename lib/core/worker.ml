let log_src = Logs.Src.create "tropic.worker" ~doc:"TROPIC worker"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Full | Logical_only of float

type t = {
  wname : string;
  client : Coord.Client.t;
  ns : string;
  mode : mode;
  devices : Physical.device_lookup;
  sim : Des.Sim.t;
  retry : Physical.retry_policy;
  trace : Trace.t option;
  mutable stopped : bool;
  mutable procs : Des.Proc.t list;
  ordinal : int; (* spreads concurrent takes over the queued items *)
  mutable n_executed : int;
  mutable n_committed : int;
  mutable n_takes : int;
}

let create ?(retry = Physical.no_retry) ?trace ?(ns = Proto.default_ns)
    ~ordinal ~name ~client ~mode ~devices ~sim () =
  {
    wname = name;
    client;
    ns;
    mode;
    devices;
    sim;
    retry;
    trace;
    stopped = false;
    procs = [];
    ordinal;
    n_executed = 0;
    n_committed = 0;
    n_takes = 0;
  }

let name w = w.wname
let executed w = w.n_executed
let committed w = w.n_committed
let take_attempts w = w.n_takes

let check_signal w txn_id () =
  match Coord.Client.get w.client (Proto.signal_key_ns w.ns txn_id) with
  | Some ("TERM", _) -> `Term
  | Some ("KILL", _) -> `Kill
  | Some _ | None -> `Go

let execute_txn w txn_id =
  match Coord.Client.get w.client (Txn.record_key_ns w.ns txn_id) with
  | None ->
    Log.err (fun m -> m "%s: no record for txn %d" w.wname txn_id);
    None
  | Some (value, _) ->
    (match Txn.of_string value with
     | Error reason ->
       Log.err (fun m -> m "%s: corrupt record for txn %d: %s" w.wname txn_id reason);
       None
     | Ok txn ->
       if txn.Txn.state <> Txn.Started then None
       else begin
         let counters = Physical.fresh_counters () in
         let t0 = Des.Sim.now w.sim in
         (* Resume cursor: a previous incarnation of this replay (lost to
            a worker or leader crash) persisted the index of the last
            action it completed.  Re-running those actions is not safe —
            creates are not idempotent, the effects are already on the
            devices — so the replay skips past them while keeping them in
            the undo prefix. *)
         let pkey = Proto.progress_key_ns w.ns txn_id in
         let skip =
           match w.mode with
           | Logical_only _ -> 0
           | Full ->
             (* Log indices are 1-based, so the last completed index IS
                the number of completed records to skip. *)
             (match Coord.Client.get w.client pkey with
              | Some (s, _) ->
                (match int_of_string_opt s with
                 | Some i -> max 0 i
                 | None -> 0)
              | None -> 0)
         in
         let on_progress i =
           if i <= 0 then ignore (Coord.Client.delete w.client ~key:pkey ())
           else
             ignore
               (Coord.Client.write w.client ~key:pkey
                  ~value:(string_of_int i) ())
         in
         (* Undo only while the record still says Started: if another
            incarnation of this replay already drove the transaction to a
            terminal state, unwinding our (partly inherited) prefix would
            corrupt its committed effects. *)
         let confirm_undo () =
           match Coord.Client.get w.client (Txn.record_key_ns w.ns txn_id) with
           | None -> false
           | Some (value, _) ->
             (match Txn.of_string value with
              | Error _ -> false
              | Ok now -> now.Txn.state = Txn.Started)
         in
         (* Each execution gets a fresh tracer lane: after a fail-over
            the same transaction can be replayed by two workers at once,
            and lanes keep their span trees from interleaving. *)
         let span =
           Option.map
             (fun tr ->
               let lane = Trace.fresh_lane tr in
               ( lane,
                 Trace.begin_span tr ~txn:txn_id ~lane ~cat:"physical"
                   ~name:"replay"
                   ~attrs:
                     ([ ("worker", w.wname);
                        ("actions", string_of_int (List.length txn.Txn.log));
                        ( "mode",
                          match w.mode with
                          | Full -> "full"
                          | Logical_only _ -> "logical" ) ]
                     @
                     if skip > 0 then [ ("resume", string_of_int skip) ]
                     else [])
                   () ))
             w.trace
         in
         (* Default outcome covers a kill mid-replay: the span is closed
            on the unwind (Fun.protect) with outcome "interrupted". *)
         let outcome_label = ref "interrupted" in
         let close_span () =
           match (w.trace, span) with
           | Some tr, Some (_, sid) ->
             Trace.end_span tr ~attrs:[ ("outcome", !outcome_label) ] sid
           | _ -> ()
         in
         let outcome =
           Fun.protect ~finally:close_span (fun () ->
               let o =
                 match w.mode with
                 | Logical_only delay ->
                   if delay > 0. then Des.Proc.sleep delay;
                   Proto.Phy_committed
                 | Full ->
                   Physical.execute ~devices:w.devices
                     ~check_signal:(check_signal w txn_id)
                     ~policy:w.retry ~rng:(Des.Sim.rng w.sim) ~sim:w.sim
                     ~counters
                     ?tracer:
                       (match (w.trace, span) with
                       | Some tr, Some (lane, _) -> Some (tr, txn_id, lane)
                       | _ -> None)
                     ~skip ~on_progress ~confirm_undo txn.Txn.log
               in
               (outcome_label :=
                  match o with
                  | Proto.Phy_committed -> "committed"
                  | Proto.Phy_aborted _ -> "aborted"
                  | Proto.Phy_failed _ -> "failed");
               o)
         in
         w.n_executed <- w.n_executed + 1;
         if outcome = Proto.Phy_committed then
           w.n_committed <- w.n_committed + 1;
         let exec =
           {
             Proto.retries = counters.Physical.retries;
             transient_failures = counters.Physical.transient_failures;
             timeouts = counters.Physical.timeouts;
             replay_s = Des.Sim.now w.sim -. t0;
             undo_s = counters.Physical.undo_s;
           }
         in
         Some (outcome, exec)
       end)

(* Take protocol: ONE atomic multi deletes the queue item and creates the
   ephemeral executing marker, so a recovering controller never re-queues
   a transaction some worker is executing, and a lost race (the delete
   fails first) leaves no claim to withdraw.  A marker left by a session
   that died but has not expired yet must not block the take: when only
   the marker create fails, the item delete alone decides it. *)
let take w ~key ~marker =
  w.n_takes <- w.n_takes + 1;
  match
    Coord.Client.multi w.client
      [ Coord.Types.Op_delete { key; must_exist = true };
        Coord.Types.Op_create
          { key = marker; value = w.wname; ephemeral = true; sequential = false } ]
  with
  | Ok _ -> true
  | Error (1, Coord.Types.Key_exists) ->
    Result.is_ok (Coord.Client.delete w.client ~key ())
  | Error _ -> false

(* Finish protocol: the result enters inputQ, the progress cursor (if any)
   and the marker go, all in one multi — no crash window leaves a stale
   cursor or a marker on a reported transaction. *)
let finish w ~txn_id ~marker result =
  let report =
    match result with
    | None -> []
    | Some (outcome, exec) ->
      [ Coord.Recipes.enqueue_op ~queue:(Proto.input_queue_ns w.ns)
          (Proto.input_to_string (Proto.Result { txn_id; outcome; exec }));
        Coord.Types.Op_delete
          { key = Proto.progress_key_ns w.ns txn_id; must_exist = false } ]
  in
  match
    Coord.Client.multi w.client
      (report @ [ Coord.Types.Op_delete { key = marker; must_exist = false } ])
  with
  | Ok _ -> ()
  | Error (i, e) ->
    Log.err (fun m ->
        m "%s: finishing txn %d failed at op %d: %a" w.wname txn_id i
          Coord.Types.pp_op_error e)

let take_and_run w (key, payload) =
  match int_of_string_opt payload with
  | None -> ignore (Coord.Client.delete w.client ~key ())
  | Some txn_id ->
    let marker = Proto.executing_key_ns w.ns txn_id in
    if take w ~key ~marker then finish w ~txn_id ~marker (execute_txn w txn_id)

(* Workers woken by one phyQ watch would all race for the head item, and
   all but one take would be wasted.  Each worker instead aims at the
   item its ordinal selects among those queued (reads are not
   replicated), so idle workers spread over a backlog. *)
let rec pick w queue ~watch =
  match Coord.Client.get_children ~watch w.client queue with
  | [] -> None
  | items ->
    let key = List.nth items (w.ordinal mod List.length items) in
    (match Coord.Client.get w.client key with
     | Some (payload, _) -> Some (key, payload)
     | None -> pick w queue ~watch:false (* taken meanwhile: look again *))

let run w () =
  let queue = Proto.phy_queue_ns w.ns in
  while not w.stopped do
    take_and_run w
      (Coord.Recipes.await_read ~read:(pick w queue) ~wait:(fun () ->
           Coord.Client.await_change w.client ~timeout:1.0))
  done

let start w =
  let p = Des.Proc.spawn ~name:w.wname w.sim (run w) in
  w.procs <- [ p ]

let crash w =
  w.stopped <- true;
  List.iter Des.Proc.kill w.procs;
  w.procs <- [];
  Coord.Client.close w.client
