(* Host time per public call, on the workload's own requests: one
   sequential logical pass over them fixes each request's input tree,
   execution log and lock set; each layer is then timed on those inputs. *)

type case = {
  proc : string;
  args : Data.Value.t list;
  tree : Data.Tree.t;             (* logical tree the request ran on *)
  result : Tropic.Logical.success;
}

(* At most this many requests feed the timings. *)
let max_cases = 256

let cases env tree (requests : Spec.request list) =
  let rec go tree acc n = function
    | [] -> List.rev acc
    | _ when n >= max_cases -> List.rev acc
    | (r : Spec.request) :: rest ->
      (match
         Tropic.Logical.simulate env ~tree ~proc:r.Spec.proc ~args:r.Spec.args
       with
       | Ok result ->
         go result.Tropic.Logical.new_tree
           ({ proc = r.Spec.proc; args = r.Spec.args; tree; result } :: acc)
           (n + 1) rest
       | Error _ -> go tree acc n rest)
  in
  Array.of_list (go tree [] 0 requests)

(* Median over [passes] passes of the host microseconds one call takes. *)
let passes = 7
let per_pass_budget = 0.02

let time_per_call cases f =
  let n = Array.length cases in
  if n = 0 then 0.
  else begin
    let rounds = ref 1 in
    let pass () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to !rounds do
        Array.iter f cases
      done;
      (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (!rounds * n)
    in
    (* Size a pass to the budget so short calls are not lost in the clock. *)
    let rec calibrate () =
      let t0 = Unix.gettimeofday () in
      ignore (pass ());
      if Unix.gettimeofday () -. t0 < per_pass_budget && !rounds < 1_000_000
      then begin
        rounds := !rounds * 2;
        calibrate ()
      end
    in
    calibrate ();
    Stats.median (List.init passes (fun _ -> pass ()))
  end

type t = {
  simulate_us : float;
  rollback_us : float;
  mglock_us : float;
  codec_us : float;
  calls : int;  (* requests the timings ran on *)
}

let run (w : Spec.t) =
  let inv = Tcloud.Setup.build w.Spec.size in
  let env = inv.Tcloud.Setup.env in
  let cases = cases env inv.Tcloud.Setup.tree (Spec.requests w) in
  let simulate_us =
    time_per_call cases (fun c ->
        ignore (Tropic.Logical.simulate env ~tree:c.tree ~proc:c.proc ~args:c.args))
  in
  let rollback_us =
    time_per_call cases (fun c ->
        ignore
          (Tropic.Logical.rollback env ~tree:c.result.Tropic.Logical.new_tree
             ~log:c.result.Tropic.Logical.log))
  in
  let locks = Mglock.create () in
  let mglock_us =
    time_per_call cases (fun c ->
        ignore (Mglock.try_acquire locks ~txn:1 c.result.Tropic.Logical.locks);
        ignore (Mglock.release_all locks ~txn:1))
  in
  let codec_us =
    time_per_call cases (fun c ->
        let txn =
          Tropic.Txn.make ~id:1 ~proc:c.proc ~args:c.args ~submitted_at:0.
        in
        txn.Tropic.Txn.log <- c.result.Tropic.Logical.log;
        txn.Tropic.Txn.locks <- c.result.Tropic.Logical.locks;
        ignore (Tropic.Txn.of_string (Tropic.Txn.to_string txn)))
  in
  { simulate_us; rollback_us; mglock_us; codec_us; calls = Array.length cases }
