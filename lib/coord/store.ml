module Smap = Map.Make (String)
module Sset = Set.Make (String)
module Imap = Map.Make (Int)

type entry = { value : string; version : int; owner : int option }

type t = {
  mutable entries : entry Smap.t;
  mutable seq_counter : int;
  mutable dedup : (int * Types.op_result) Imap.t; (* session -> last req, result *)
  mutable members : int list;
      (* ensemble configuration as of the *applied* prefix; every
         instance must boot from the same list or replay diverges *)
}

let create ?(members = []) () =
  {
    entries = Smap.empty;
    seq_counter = 0;
    dedup = Imap.empty;
    members = List.sort compare members;
  }

let members t = t.members

let parent key =
  match String.rindex_opt key '/' with
  | None -> None
  | Some i -> Some (String.sub key 0 i)

let get t key =
  Option.map (fun e -> (e.value, e.version)) (Smap.find_opt key t.entries)

let exists t key = Smap.mem key t.entries
let size t = Smap.cardinal t.entries

let children t prefix =
  let prefix_slash = prefix ^ "/" in
  let plen = String.length prefix_slash in
  let is_direct_child key =
    String.length key > plen
    && String.sub key 0 plen = prefix_slash
    && not (String.contains_from key plen '/')
  in
  (* Walk keys from the prefix upward; Smap iterates in order so we can stop
     at the first key past the prefix range. *)
  let rec collect seq acc =
    match Seq.uncons seq with
    | None -> List.rev acc
    | Some ((key, _), rest) ->
      if String.length key >= plen && String.sub key 0 plen = prefix_slash then
        collect rest (if is_direct_child key then key :: acc else acc)
      else if key > prefix_slash then List.rev acc
      else collect rest acc
  in
  collect (Smap.to_seq_from prefix_slash t.entries) []

let first_child t prefix =
  let prefix_slash = prefix ^ "/" in
  let plen = String.length prefix_slash in
  let rec scan seq =
    match Seq.uncons seq with
    | None -> None
    | Some ((key, _), rest) ->
      if String.length key >= plen && String.sub key 0 plen = prefix_slash then
        if not (String.contains_from key plen '/') then Some key else scan rest
      else None
  in
  scan (Smap.to_seq_from prefix_slash t.entries)

let count_children t prefix = List.length (children t prefix)

let ephemeral_owners t =
  Smap.fold
    (fun _ e acc ->
      match e.owner with
      | Some s when not (List.mem s acc) -> s :: acc
      | Some _ | None -> acc)
    t.entries []

let do_create t ~session ~key ~value ~ephemeral ~sequential =
  let final_key =
    if sequential then begin
      t.seq_counter <- t.seq_counter + 1;
      Printf.sprintf "%s%010d" key t.seq_counter
    end
    else key
  in
  if Smap.mem final_key t.entries then
    (Types.Op_failed Types.Key_exists, [])
  else begin
    let owner = if ephemeral then Some session else None in
    t.entries <- Smap.add final_key { value; version = 1; owner } t.entries;
    (Types.Created final_key, [ final_key ])
  end

let do_write t ~key ~value ~expect_version =
  match Smap.find_opt key t.entries, expect_version with
  | None, Some _ -> (Types.Op_failed Types.Key_missing, [])
  | None, None ->
    t.entries <- Smap.add key { value; version = 1; owner = None } t.entries;
    (Types.Written 1, [ key ])
  | Some e, Some v when e.version <> v -> (Types.Op_failed Types.Bad_version, [])
  | Some e, (Some _ | None) ->
    let e' = { e with value; version = e.version + 1 } in
    t.entries <- Smap.add key e' t.entries;
    (Types.Written e'.version, [ key ])

let do_delete t ~key ~expect_version =
  match Smap.find_opt key t.entries, expect_version with
  | None, _ -> (Types.Op_failed Types.Key_missing, [])
  | Some e, Some v when e.version <> v -> (Types.Op_failed Types.Bad_version, [])
  | Some _, (Some _ | None) ->
    t.entries <- Smap.remove key t.entries;
    (Types.Deleted_ok, [ key ])

(* Apply [ops] in order; if one fails, roll back every earlier op's effect
   (entries and the sequential counter: an immutable map and an int, so
   restoring them is exact) and report the failing op's index.  The
   changed keys of a successful multi are listed once each, in
   first-change order. *)
let do_multi t ~session ops =
  let entries = t.entries and seq_counter = t.seq_counter in
  let apply_op = function
    | Types.Op_create { key; value; ephemeral; sequential } ->
      do_create t ~session ~key ~value ~ephemeral ~sequential
    | Types.Op_write { key; value } -> do_write t ~key ~value ~expect_version:None
    | Types.Op_delete { key; must_exist } ->
      if must_exist || Smap.mem key t.entries then
        do_delete t ~key ~expect_version:None
      else (Types.Noop_ok, [])
  in
  let rec go i results changed = function
    | [] ->
      let _, changed =
        List.fold_left
          (fun (seen, acc) k ->
            if Sset.mem k seen then (seen, acc) else (Sset.add k seen, k :: acc))
          (Sset.empty, []) (List.rev changed)
      in
      (Types.Multi_ok (List.rev results), List.rev changed)
    | op :: rest ->
      (match apply_op op with
       | Types.Op_failed e, _ ->
         t.entries <- entries;
         t.seq_counter <- seq_counter;
         (Types.Multi_failed (i, e), [])
       | result, keys ->
         go (i + 1) (result :: results) (List.rev_append keys changed) rest)
  in
  go 0 [] [] ops

let do_expire t session =
  let doomed =
    Smap.fold
      (fun key e acc -> if e.owner = Some session then key :: acc else acc)
      t.entries []
  in
  List.iter (fun key -> t.entries <- Smap.remove key t.entries) doomed;
  t.dedup <- Imap.remove session t.dedup;
  (Types.Expired_ok, List.rev doomed)

let apply t cmd =
  let deduped session req run =
    match Imap.find_opt session t.dedup with
    | Some (last_req, cached) when req <= last_req -> (cached, [])
    | Some _ | None ->
      let result, changed = run () in
      t.dedup <- Imap.add session (req, result) t.dedup;
      (result, changed)
  in
  match cmd with
  | Types.Create { session; req; key; value; ephemeral; sequential } ->
    deduped session req (fun () ->
        do_create t ~session ~key ~value ~ephemeral ~sequential)
  | Types.Write { session; req; key; value; expect_version } ->
    deduped session req (fun () -> do_write t ~key ~value ~expect_version)
  | Types.Delete { session; req; key; expect_version } ->
    deduped session req (fun () -> do_delete t ~key ~expect_version)
  | Types.Multi { session; req; ops } ->
    deduped session req (fun () -> do_multi t ~session ops)
  | Types.Expire_session session -> do_expire t session
  | Types.Noop -> (Types.Noop_ok, [])
  | Types.Add_replica { session; req; id } ->
    deduped session req (fun () ->
        t.members <- Types.add_member t.members id;
        (Types.Config_ok, []))
  | Types.Remove_replica { session; req; id } ->
    deduped session req (fun () ->
        t.members <- Types.remove_member t.members id;
        (Types.Config_ok, []))

(* ------------------------------------------------------------------ *)
(* Snapshot codec *)

let error_names =
  [ (Types.Key_missing, "missing"); (Types.Key_exists, "exists");
    (Types.Bad_version, "version"); (Types.Config_pending, "pending");
    (Types.Config_invalid, "invalid") ]

let rec result_to_sexp =
  let open Data.Sexp in
  function
  | Types.Created k -> List [ Atom "created"; Atom k ]
  | Types.Written v -> List [ Atom "written"; of_int v ]
  | Types.Deleted_ok -> List [ Atom "deleted" ]
  | Types.Expired_ok -> List [ Atom "expired" ]
  | Types.Noop_ok -> List [ Atom "noop" ]
  | Types.Config_ok -> List [ Atom "config" ]
  | Types.Op_failed e -> List [ Atom "failed"; Atom (List.assoc e error_names) ]
  | Types.Multi_ok results ->
    List (Atom "multi" :: List.map result_to_sexp results)
  | Types.Multi_failed (i, e) ->
    List [ Atom "multi-failed"; of_int i; Atom (List.assoc e error_names) ]

let error_of_name name =
  match List.find_opt (fun (_, n) -> String.equal n name) error_names with
  | Some (e, _) -> Ok e
  | None -> Error ("Store: unknown op error " ^ name)

let ( let* ) r f = Result.bind r f

let rec result_of_sexp =
  let open Data.Sexp in
  function
  | List [ Atom "created"; Atom k ] -> Ok (Types.Created k)
  | List [ Atom "written"; v ] ->
    Result.map (fun v -> Types.Written v) (to_int v)
  | List [ Atom "deleted" ] -> Ok Types.Deleted_ok
  | List [ Atom "expired" ] -> Ok Types.Expired_ok
  | List [ Atom "noop" ] -> Ok Types.Noop_ok
  | List [ Atom "config" ] -> Ok Types.Config_ok
  | List [ Atom "failed"; Atom name ] ->
    Result.map (fun e -> Types.Op_failed e) (error_of_name name)
  | List (Atom "multi" :: results) ->
    let* results =
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          let* r = result_of_sexp r in
          Ok (r :: acc))
        (Ok []) results
    in
    Ok (Types.Multi_ok (List.rev results))
  | List [ Atom "multi-failed"; i; Atom name ] ->
    let* i = to_int i in
    let* e = error_of_name name in
    Ok (Types.Multi_failed (i, e))
  | other -> Error ("Store.result_of_sexp: " ^ to_string other)

let to_sexp t =
  let open Data.Sexp in
  List
    [
      of_int t.seq_counter;
      List (List.map of_int t.members);
      List
        (Smap.fold
           (fun key e acc ->
             List
               [
                 Atom key; Atom e.value; of_int e.version;
                 (match e.owner with Some s -> of_int s | None -> Atom "none");
               ]
             :: acc)
           t.entries []);
      List
        (Imap.fold
           (fun session (req, result) acc ->
             List [ of_int session; of_int req; result_to_sexp result ] :: acc)
           t.dedup []);
    ]

let of_sexp sexp =
  match sexp with
  | Data.Sexp.List
      [ seq; Data.Sexp.List members; Data.Sexp.List entries;
        Data.Sexp.List dedup ] ->
    let* seq_counter = Data.Sexp.to_int seq in
    let* members =
      List.fold_left
        (fun acc m ->
          let* acc = acc in
          let* m = Data.Sexp.to_int m in
          Ok (m :: acc))
        (Ok []) members
    in
    let members = List.sort compare members in
    let* entries =
      List.fold_left
        (fun acc entry ->
          let* acc = acc in
          match entry with
          | Data.Sexp.List [ Data.Sexp.Atom key; Data.Sexp.Atom value; version; owner ] ->
            let* version = Data.Sexp.to_int version in
            let* owner =
              match owner with
              | Data.Sexp.Atom "none" -> Ok None
              | o -> Result.map (fun s -> Some s) (Data.Sexp.to_int o)
            in
            Ok (Smap.add key { value; version; owner } acc)
          | other -> Error ("bad store entry: " ^ Data.Sexp.to_string other))
        (Ok Smap.empty) entries
    in
    let* dedup =
      List.fold_left
        (fun acc entry ->
          let* acc = acc in
          match entry with
          | Data.Sexp.List [ session; req; result ] ->
            let* session = Data.Sexp.to_int session in
            let* req = Data.Sexp.to_int req in
            let* result = result_of_sexp result in
            Ok (Imap.add session (req, result) acc)
          | other -> Error ("bad dedup entry: " ^ Data.Sexp.to_string other))
        (Ok Imap.empty) dedup
    in
    Ok { entries; seq_counter; dedup; members }
  | other -> Error ("Store.of_sexp: " ^ Data.Sexp.to_string other)
