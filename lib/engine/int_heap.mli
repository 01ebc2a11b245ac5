(** Structure-of-arrays 4-ary min-heap with [int] payloads.

    {!Heap} specialised to immediate payloads: the scheduler queues pool
    indices instead of event records, so every array here is unboxed — sift
    moves execute no write barrier and the GC never scans the queue. Ordered
    by [(time, seq)] exactly like {!Heap}; since that key is a strict total
    order, both implementations pop identical sequences (checked by the
    differential suite in [test/test_differential.ml]). *)

type t

val create : unit -> t
(** An empty heap. *)

val length : t -> int
(** Number of queued entries. *)

val is_empty : t -> bool

type slot = { mutable slot_time : float }
(** A time passed in or out through an all-float record: writing it is an
    unboxed store, and unlike a [float] argument or result it is not boxed
    at the call, so it costs no allocation. *)

val slot : unit -> slot

val add : t -> slot -> seq:int -> int -> unit
(** [add t key ~seq v] inserts [v] keyed by [(key.slot_time, seq)].
    Amortised O(1) and allocation-free (arrays double in place). [seq] must
    be unique across live entries for deterministic ordering. *)

val peek_time : t -> slot -> bool
(** [peek_time t out] writes the minimum entry's time into [out] and returns
    true, or returns false on an empty heap without touching [out]. *)

val peek_key : t -> slot -> seq:int ref -> bool
(** [peek_key t out ~seq] additionally writes the minimum entry's sequence
    number into [seq] — the full comparison key, for callers merging this
    heap with other sorted queues. *)

val pop_into : t -> slot -> seq:int ref -> int
(** [pop_into t out ~seq] removes the minimum entry, writing its time into
    [out] and its sequence number into [seq], and returns its payload.

    @raise Invalid_argument on an empty heap. *)

val clear : t -> unit
(** Drop all entries and release the backing arrays. *)
