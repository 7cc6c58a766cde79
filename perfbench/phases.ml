(* Split each committed request's latency (due time to reply, virtual)
   into phases, joining the timestamps the simulated clients recorded to
   the transaction's spans in the platform trace.

   Before the controller admits the txn (its root span opens) the request
   is in [client_queue]; after the root closes, the reply is in [notify].
   Inside the root, each instant goes to the highest-priority span that
   covers it (undo > replay > simulate > lock_wait).  Uncovered instants
   are coordination-service persists and hand-offs, named by position:
   [ready_wait] up to the last simulate, [dispatch] up to the last replay,
   [finalize] after it. *)

let names =
  [| "client_queue"; "ready_wait"; "lock_wait"; "simulate"; "dispatch";
     "replay"; "undo"; "finalize"; "notify" |]

let index name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let i_client_queue = index "client_queue"
let i_ready_wait = index "ready_wait"
let i_lock_wait = index "lock_wait"
let i_simulate = index "simulate"
let i_dispatch = index "dispatch"
let i_replay = index "replay"
let i_undo = index "undo"
let i_finalize = index "finalize"
let i_notify = index "notify"

(* Phase of a span that covers time, by priority (higher wins). *)
let covering (s : Trace.span) =
  match s.Trace.name with
  | "undo" when s.Trace.cat = "undo" -> Some (4, i_undo)
  | "replay" -> Some (3, i_replay)
  | "simulate" -> Some (2, i_simulate)
  | "lock-wait" | "breaker-park" -> Some (1, i_lock_wait)
  | _ -> None

type split = {
  totals : float array;  (* summed seconds per phase *)
  latency : float;       (* summed latency of the split requests *)
  problems : string list;
}

let eps = 1e-9

let split trace (replies : Drive.reply array) =
  let by_txn = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) -> Hashtbl.add by_txn s.Trace.txn s)
    (Trace.spans trace);
  let totals = Array.make (Array.length names) 0. in
  let latency = ref 0. and problems = ref [] in
  let problem r msg =
    problems := Printf.sprintf "txn %d: %s" r.Drive.txn msg :: !problems
  in
  Array.iter
    (fun (r : Drive.reply) ->
      if Drive.classify r.Drive.state = Drive.Committed then begin
        let spans = Hashtbl.find_all by_txn r.Drive.txn in
        let roots =
          List.filter
            (fun (s : Trace.span) -> s.Trace.cat = "txn" && s.Trace.parent = None)
            spans
        in
        match roots with
        | [ ({ Trace.end_ts = Some root_end; _ } as root) ] ->
          let root_start = root.Trace.start_ts in
          if root_start < r.Drive.due_at -. eps then
            problem r "admitted before it was due"
          else if root_end > r.Drive.replied +. eps then
            problem r "finalized after the client saw the reply"
          else begin
            let phase = Array.make (Array.length names) 0. in
            phase.(i_client_queue) <- root_start -. r.Drive.due_at;
            phase.(i_notify) <- r.Drive.replied -. root_end;
            (* Span bounds are taken as recorded: a covering span that leaks
               out of the root span widens the walk below, so the phases no
               longer sum to the latency and the check fails. *)
            let covers =
              List.filter_map
                (fun (s : Trace.span) ->
                  match (covering s, s.Trace.end_ts) with
                  | Some (prio, ph), Some e -> Some (prio, ph, s.Trace.start_ts, e)
                  | _ -> None)
                spans
            in
            let last ph =
              List.fold_left
                (fun acc (_, p, _, e) -> if p = ph then Float.max acc e else acc)
                neg_infinity covers
            in
            let last_simulate = last i_simulate in
            let last_exec = Float.max (last i_replay) (last i_undo) in
            let cuts =
              List.sort_uniq Float.compare
                (root_start :: root_end
                 :: List.concat_map (fun (_, _, s, e) -> [ s; e ]) covers)
            in
            let rec walk = function
              | a :: (b :: _ as rest) ->
                let mid = (a +. b) /. 2. in
                let best =
                  List.fold_left
                    (fun acc (prio, ph, s, e) ->
                      if s <= mid && mid < e then
                        match acc with
                        | Some (bp, _) when bp >= prio -> acc
                        | _ -> Some (prio, ph)
                      else acc)
                    None covers
                in
                let ph =
                  match best with
                  | Some (_, ph) -> ph
                  | None ->
                    if mid < last_simulate then i_ready_wait
                    else if mid < last_exec then i_dispatch
                    else i_finalize
                in
                phase.(ph) <- phase.(ph) +. (b -. a);
                walk rest
              | [ _ ] | [] -> ()
            in
            walk cuts;
            let total = Array.fold_left ( +. ) 0. phase in
            let lat = r.Drive.replied -. r.Drive.due_at in
            if Float.abs (total -. lat) > 1e-6 *. Float.max 1. lat then
              problem r
                (Printf.sprintf "phases sum to %.9f s, latency is %.9f s%s"
                   total lat
                   (String.concat ""
                      (List.filter_map
                         (fun (_, ph, s, e) ->
                           if s < root_start -. eps || e > root_end +. eps then
                             Some
                               (Printf.sprintf
                                  "; %s span %.9f-%.9f outside the root \
                                   %.9f-%.9f"
                                  names.(ph) s e root_start root_end)
                           else None)
                         covers)))
            else begin
              Array.iteri (fun i v -> totals.(i) <- totals.(i) +. v) phase;
              latency := !latency +. lat
            end
          end
        | [ _ ] -> problem r "root span never closed"
        | [] -> problem r "no root span"
        | _ -> problem r "several root spans"
      end)
    replies;
  { totals; latency = !latency; problems = List.rev !problems }

(* Durations of closed spans with the given name, in seconds. *)
let durations trace name =
  List.filter_map
    (fun (s : Trace.span) ->
      match s.Trace.end_ts with
      | Some e when s.Trace.name = name -> Some (e -. s.Trace.start_ts)
      | _ -> None)
    (Trace.spans trace)
