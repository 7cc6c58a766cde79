let poll_interval = 1.0
(* Watches are only hints; every blocking loop re-checks at least this often. *)

(* A reader that need not wait arms nothing.  The watched read arms its
   watch in the same leader step as the read, so no change slips in
   between.  An event spends its watch, so the next read starts unwatched
   again; a timeout may mean a leader change lost the watch, so the next
   read re-arms straight away. *)
let read_step ~read ~wait ~watch =
  let rec go ~watch =
    match read ~watch with
    | Some v -> (Some v, false)
    | None when not watch -> go ~watch:true
    | None -> (None, not (wait ()))
  in
  go ~watch

let await_read ~read ~wait =
  let rec loop ~watch =
    match read_step ~read ~wait ~watch with
    | Some v, _ -> v
    | None, watch -> loop ~watch
  in
  loop ~watch:false

(* ------------------------------------------------------------------ *)
(* Queue *)

let enqueue_op ~queue value =
  Types.Op_create
    { key = queue ^ "/item-"; value; ephemeral = false; sequential = true }

let enqueue client ~queue value =
  match
    Client.create client ~sequential:true ~key:(queue ^ "/item-") ~value ()
  with
  | Ok key -> key
  | Error e ->
    failwith
      (Printf.sprintf "Recipes.enqueue: %s"
         (Format.asprintf "%a" Types.pp_op_error e))

let head_item client ~queue = Client.first_child client queue

let peek client ~queue =
  match head_item client ~queue with
  | None -> None
  | Some key ->
    (match Client.get client key with
     | Some (value, _) -> Some (key, value)
     | None -> None)

let queue_length client ~queue = Client.count_children client queue

let dequeue client ~queue ?timeout () =
  let deadline = Option.map (fun d -> Des.Proc.now () +. d) timeout in
  let expired () =
    match deadline with None -> false | Some d -> Des.Proc.now () >= d
  in
  let wait () =
    let budget =
      match deadline with
      | None -> poll_interval
      | Some d -> Float.min poll_interval (d -. Des.Proc.now ())
    in
    Client.await_change client ~timeout:budget
  in
  (* [Some None] ends the wait empty-handed once the deadline passes. *)
  let read ~watch =
    match Client.first_child_value ~watch client queue with
    | Some item -> Some (Some item)
    | None -> if expired () then Some None else None
  in
  let rec loop () =
    match await_read ~read ~wait with
    | None -> None
    | Some (key, value) ->
      (match Client.delete client ~key () with
       | Ok () -> Some (key, value)
       | Error Types.Key_missing -> loop () (* lost the take race *)
       | Error e ->
         failwith
           (Printf.sprintf "Recipes.dequeue: %s"
              (Format.asprintf "%a" Types.pp_op_error e)))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Leader election *)

let join_election client ~election ~payload =
  match
    Client.create client ~ephemeral:true ~sequential:true
      ~key:(election ^ "/m-") ~value:payload ()
  with
  | Ok key -> key
  | Error e ->
    failwith
      (Printf.sprintf "Recipes.join_election: %s"
         (Format.asprintf "%a" Types.pp_op_error e))

let members client ~election = Client.get_children client election

let is_leader client ~election ~member =
  match members client ~election with
  | [] -> false
  | head :: _ -> String.equal head member

let await_leadership client ~election ~member =
  let rec loop () =
    match members client ~election with
    | [] -> failwith "Recipes.await_leadership: member vanished"
    | head :: _ when String.equal head member -> ()
    | group ->
      (* Watch the member just ahead of us (the classic herd-avoiding
         pattern).  The watched read arms the watch and confirms the
         predecessor is still there in one step; re-check the group once
         it is gone.  A timed-out wait re-arms the watch directly. *)
      let predecessor =
        let rec find_prev = function
          | a :: b :: _ when String.equal b member -> a
          | _ :: rest -> find_prev rest
          | [] -> List.hd group
        in
        find_prev group
      in
      let rec wait () =
        match Client.get ~watch:true client predecessor with
        | None -> ()
        | Some _ ->
          if not (Client.await_change client ~timeout:poll_interval) then wait ()
      in
      wait ();
      loop ()
  in
  loop ()

let leader_payload client ~election =
  match members client ~election with
  | [] -> None
  | head :: _ ->
    (match Client.get client head with
     | Some (payload, _) -> Some payload
     | None -> None)

(* Ownership leases are elections by another name: the ephemeral
   sequential member node doubles as the lease (it dies with the session,
   so fail-over needs no separate expiry machinery), and holding the
   lease means sorting first.  Shard controllers race for their shard's
   lease exactly as the unsharded controller group raced for the single
   election. *)

let acquire_lease client ~lease ~payload =
  join_election client ~election:lease ~payload

let holds_lease client ~lease ~member = is_leader client ~election:lease ~member
let await_lease client ~lease ~member = await_leadership client ~election:lease ~member
let lease_holder client ~lease = leader_payload client ~election:lease
