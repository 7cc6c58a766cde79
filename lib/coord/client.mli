(** Client session of the coordination service.

    A client owns a network node id (its session id), finds the current
    leader (following [Not_leader] hints and rotating on timeouts), keeps
    its session alive with pings, and retries commands across leader
    changes — retries are safe because the state machine deduplicates on
    [(session, req)].

    {!get}, {!get_children} and {!first_child_value} can be watched reads
    ([~watch:true]): the leader arms a one-shot watch in the same step
    that serves the read, so a change made after the read always fires
    it.  Watch events arrive
    asynchronously; they are surfaced both on {!events} and through
    {!await_change}, which recipes use as a wake-up hint before
    re-checking state (one-shot watches may be lost on a leader change,
    so all waiting is timeout-based). *)

type t

(** [members] seeds the leader search; the client refreshes its view from
    [Not_leader] replies as the ensemble configuration changes. *)
val connect :
  net:Types.msg Des.Net.t ->
  id:int ->
  members:int list ->
  config:Types.config ->
  ?session_timeout:float ->
  name:string ->
  unit ->
  t

val session_id : t -> int
val name : t -> string

(** {1 Replicated updates} — block the calling process until the command
    commits; retried transparently across failures. *)

val create :
  t ->
  ?ephemeral:bool ->
  ?sequential:bool ->
  key:string ->
  value:string ->
  unit ->
  (string, Types.op_error) result

val write :
  t -> ?expect_version:int -> key:string -> value:string -> unit ->
  (int, Types.op_error) result

val delete :
  t -> ?expect_version:int -> key:string -> unit -> (unit, Types.op_error) result

(** [multi c ops] applies [ops] atomically, in order, as one replicated
    command: one log entry, one slot in a group-commit batch, one dedup
    entry.  [Ok results] has one result per op; [Error (i, e)] means op
    [i] failed with [e] and none of the ops took effect.  An empty [ops]
    returns [Ok []] without contacting the service. *)
val multi :
  t -> Types.op list -> (Types.op_result list, int * Types.op_error) result

(** {1 Membership changes} — replicated like any command.  [Error
    Config_pending] means another change is in flight; retry. *)

val add_replica : t -> id:int -> (unit, Types.op_error) result
val remove_replica : t -> id:int -> (unit, Types.op_error) result

(** {1 Queries} — served by the leader from applied state.  With
    [~watch:true] (default [false]) the read also arms a one-shot watch:
    a key watch on the key for {!get}, a child watch on the prefix for
    {!get_children} and {!first_child_value}. *)

val get : ?watch:bool -> t -> string -> (string * int) option
val get_children : ?watch:bool -> t -> string -> string list

(** Smallest direct child, without transferring the whole listing. *)
val first_child : t -> string -> string option

(** Smallest direct child together with its value, in one round trip. *)
val first_child_value : ?watch:bool -> t -> string -> (string * string) option

val count_children : t -> string -> int

(** {1 Events} *)

val events : t -> Types.watch_event Des.Channel.t

(** Wait until any watch fires or [timeout] elapses; [true] iff an event
    arrived.  Callers must re-check the condition they care about. *)
val await_change : t -> timeout:float -> bool

(** {1 Lifecycle} *)

(** Stop all client activity without telling anyone.  The session stops
    pinging, so its ephemerals expire only after the session timeout —
    exactly what a crashed controller looks like. *)
val close : t -> unit

(** Graceful shutdown: announce the departure so the leader expires the
    session's ephemerals immediately, then {!close}. *)
val disconnect : t -> unit

val closed : t -> bool
