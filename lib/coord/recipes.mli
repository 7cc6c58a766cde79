(** ZooKeeper-style client recipes used by TROPIC: replicated FIFO queues
    (inputQ, phyQ) and leader election for the controller group.

    Both recipes treat watch events purely as wake-up hints and re-check
    state on a timeout, so they stay correct when one-shot watches are lost
    across a coordination-service leader change. *)

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
