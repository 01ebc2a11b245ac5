(** A directed point-to-point link with a bounded FIFO output queue.

    The model matches the paper's simulator: store-and-forward serialization at
    [bandwidth] bits per second, then a fixed propagation delay. Payloads are
    polymorphic so the same link carries both data packets and routing
    messages (which therefore contend for the same transmission capacity).

    Reliability: a [send ~reliable:true] bypasses the queue-capacity check,
    approximating a TCP control channel (BGP) that would retransmit rather
    than lose an update. Even reliable payloads are lost when the link fails
    while they are queued or in flight. *)

type 'a t

val create :
  sched:Dessim.Scheduler.t ->
  bandwidth_bps:float ->
  prop_delay:float ->
  queue_capacity:int ->
  deliver:('a -> unit) ->
  dropped:('a -> Types.drop_reason -> unit) ->
  unit ->
  'a t
(** [create ~sched ~bandwidth_bps ~prop_delay ~queue_capacity ~deliver ~dropped ()]
    is an idle, up link. [deliver] fires at the receiving end after queueing,
    transmission, and propagation; [dropped] fires whenever a payload is lost,
    with the reason. *)

type send_result = Sent | Rejected of Types.drop_reason

val send : 'a t -> ?reliable:bool -> size_bits:int -> 'a -> send_result
(** [send t ~size_bits x] enqueues [x] for transmission. [Rejected Link_down]
    if the link is down, [Rejected Queue_overflow] if the queue is full and
    [reliable] is false (default). A rejected payload also triggers the
    [dropped] callback. *)

val fail : 'a t -> unit
(** [fail t] takes the link down immediately: queued and in-flight payloads
    are dropped with [Link_down], oldest first (the order they were sent),
    and future sends are rejected. None of them is delivered later.
    Idempotent. *)

val restore : 'a t -> unit
(** [restore t] brings a failed link back up with an empty queue. *)

val is_up : 'a t -> bool

val queue_length : 'a t -> int
(** [queue_length t] is the number of payloads accepted but not yet fully
    transmitted (the FIFO occupancy used for the capacity check). *)

val in_flight : 'a t -> int
(** [in_flight t] counts payloads currently propagating (transmitted but not
    yet delivered). *)

val utilization_busy_until : 'a t -> float
(** [utilization_busy_until t] is the absolute time at which the transmitter
    becomes idle; useful for tests of the serialization model. *)
