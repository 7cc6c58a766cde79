(* The host's speed, read from a fixed reference computation.

   The host shares its cores with other work, and its speed drifts by up
   to 1.5x within minutes: on a 2-core share of a shared host the same
   failover execution took 1.1 s in one run and 1.6 s in the next.  The reference computation (a binary heap of
   timestamped events with string-keyed table updates and short-lived
   allocations, like the simulator's own loop) drifts with it.  It is
   timed in short chunks spread over the measured window, and the window
   is scaled by [nominal_s /. r], where [r] is the chunks' mean time:
   seconds on a host that runs a chunk in [nominal_s].  The reference does
   not use the repository's code, so a change to the system moves only
   the measured time, never the scale. *)

(* Iterations of one chunk, and its time at the reference speed. *)
let iterations = 3_000
let nominal_s = 0.004

type ev = { at : float; id : int; payload : int list }

let work () =
  let st = Random.State.make [| 7 |] in
  let cap = 1 lsl 12 in
  let heap = Array.make cap { at = 0.; id = 0; payload = [] } in
  let n = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let push e =
    heap.(!n) <- e;
    let i = ref !n in
    incr n;
    while !i > 0 && heap.((!i - 1) / 2).at > heap.(!i).at do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    heap.(0) <- heap.(!n);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !n && heap.(l).at < heap.(!m).at then m := l;
      if r < !n && heap.(r).at < heap.(!m).at then m := r;
      if !m = !i then go := false
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let tbl = Hashtbl.create 1024 in
  for i = 0 to (cap / 2) - 1 do
    push { at = Random.State.float st 1.; id = i; payload = [] }
  done;
  let acc = ref 0 in
  for k = 1 to iterations do
    let e = pop () in
    let key = Printf.sprintf "n%d" (e.id land 1023) in
    (match Hashtbl.find_opt tbl key with
     | Some v -> acc := !acc + List.length v
     | None -> ());
    Hashtbl.replace tbl key (List.filteri (fun i _ -> i < 4) (k :: e.payload));
    push
      { at = e.at +. Random.State.float st 1.; id = e.id + k;
        payload = List.init 3 (fun j -> j + k) }
  done;
  !acc

(* Wall seconds one chunk takes now. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

(* [s] host seconds measured while a chunk took [reference]. *)
let scale s ~reference = s *. nominal_s /. reference

(* Chunk readings taken at most every [interval] wall seconds. *)
let interval = 0.05

type meter = {
  mutable spent : float;          (* wall seconds spent in chunks *)
  mutable readings : float list;
  mutable next : float;           (* wall clock of the next reading *)
}

let meter () = { spent = 0.; readings = []; next = 0. }

(* Time one chunk now. *)
let read m =
  let r = time () in
  m.spent <- m.spent +. r;
  m.readings <- r :: m.readings;
  m.next <- Unix.gettimeofday () +. interval

(* Time one chunk if [interval] has passed since the last reading. *)
let probe m = if Unix.gettimeofday () >= m.next then read m

(* Mean chunk time; takes a reading if there is none yet. *)
let mean m =
  if m.readings = [] then read m;
  List.fold_left ( +. ) 0. m.readings /. float_of_int (List.length m.readings)
