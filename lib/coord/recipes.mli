(** ZooKeeper-style client recipes used by TROPIC: replicated FIFO queues
    (inputQ, phyQ) and leader election for the controller group.

    Both recipes treat watch events purely as wake-up hints and re-check
    state on a timeout, so they stay correct when one-shot watches are lost
    across a coordination-service leader change. *)

(** {1 Waiting on a read} *)

(** [await_read ~read ~wait] blocks until [read ~watch] returns [Some v],
    and returns [v].  The first read is unwatched; when it misses, the
    next read is a watched read ([~watch:true]) and every miss after a
    watched read calls [wait ()], which blocks until a watch event
    ([true]) or a timeout ([false]).  After an event the next read is
    unwatched again; after a timeout it is watched, re-arming a watch a
    coordination-service leader change may have lost. *)
val await_read : read:(watch:bool -> 'a option) -> wait:(unit -> bool) -> 'a

(** One step of {!await_read} for a caller that must regain control after
    each wait: reads until a hit or one [wait ()], starting with a watched
    read iff [~watch].  Returns the item, if any, and the [~watch] to pass
    to the next step. *)
val read_step :
  read:(watch:bool -> 'a option) -> wait:(unit -> bool) -> watch:bool ->
  'a option * bool

(** {1 Distributed FIFO queue} *)

(** [enqueue client ~queue value] appends an item; returns its key. *)
val enqueue : Client.t -> queue:string -> string -> string

(** The same append as one op of a {!Client.multi}, so an item can be
    enqueued atomically with other writes. *)
val enqueue_op : queue:string -> string -> Types.op

(** [dequeue client ~queue ()] removes and returns the oldest item
    [(key, value)], blocking until one is available (or until [timeout]
    elapses, returning [None]).  Safe with concurrent consumers: losers of
    the delete race simply retry. *)
val dequeue :
  Client.t -> queue:string -> ?timeout:float -> unit -> (string * string) option

(** Oldest item without removing it. *)
val peek : Client.t -> queue:string -> (string * string) option

(** Number of items currently queued. *)
val queue_length : Client.t -> queue:string -> int

(** {1 Leader election} *)

(** [join_election client ~election ~payload] registers an ephemeral
    sequential member node; returns the member key.  The member with the
    smallest key is the leader; dead members disappear with their session. *)
val join_election : Client.t -> election:string -> payload:string -> string

(** [is_leader client ~election ~member] — does [member] currently sort
    first? *)
val is_leader : Client.t -> election:string -> member:string -> bool

(** Block until [member] is the smallest member of the election group. *)
val await_leadership : Client.t -> election:string -> member:string -> unit

(** Current leader's payload, if any member exists. *)
val leader_payload : Client.t -> election:string -> string option

(** {1 Ownership leases}

    A lease is an election whose winner owns a resource (a shard of the
    resource tree): the ephemeral sequential member node {e is} the lease
    — it expires with the holder's session, so fail-over reuses the
    election machinery unchanged. *)

(** Race for [lease]; returns this contender's member key. *)
val acquire_lease : Client.t -> lease:string -> payload:string -> string

val holds_lease : Client.t -> lease:string -> member:string -> bool

(** Block until [member] holds [lease]. *)
val await_lease : Client.t -> lease:string -> member:string -> unit

(** Current holder's payload, if anyone holds the lease. *)
val lease_holder : Client.t -> lease:string -> string option
