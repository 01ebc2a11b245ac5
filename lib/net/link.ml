(* The link is a FIFO ring over payloads. Both of a payload's events fire in
   the order the payloads were accepted: finish times are serialised by the
   single transmitter, and the propagation delay is one constant, so
   arrivals keep that order too (ties fall back to the scheduler's FIFO
   [seq] order). The ring therefore needs no per-payload bookkeeping beyond
   its slot:

     head ........ head+flying ........ head+flying+queue_len
     [ in flight ][      queued      ][ free ]

   A tx-done event moves the first queued slot into flight; an arrival event
   pops [head]. Both events are tagged with the link itself as payload, so a
   steady-state hop allocates nothing.

   Each slot owns a scheduler handle that its two events reuse in turn, so
   at most one queued event references a slot's handle. [fail] breaks that:
   the events it cancels stay queued until popped. It therefore gives every
   slot it cancels a fresh handle, and the slot's next events share no flag
   with a dead one. *)

module S = Dessim.Scheduler

type 'a t = {
  sched : S.t;
  bandwidth_bps : float;
  prop_delay : float;
  queue_capacity : int;
  deliver : 'a -> unit;
  dropped : 'a -> Types.drop_reason -> unit;
  clock : S.clock;
  busy_until : S.stamp;  (* when the transmitter goes idle; flat, unboxed *)
  mutable up : bool;
  mutable slots : Obj.t array;  (* payloads; power-of-two length *)
  mutable handles : S.handle array;  (* one per slot, parallel to [slots] *)
  mutable head : int;  (* oldest payload still on the link *)
  mutable queue_len : int;
  mutable flying : int;
  tx_done : 'a t S.tag;
  arrive : 'a t S.tag;
}

type send_result = Sent | Rejected of Types.drop_reason

let empty = Obj.repr 0

let initial_slots = 8

let mask t = Array.length t.slots - 1

let transmitted t =
  let i = (t.head + t.flying) land mask t in
  t.queue_len <- t.queue_len - 1;
  t.flying <- t.flying + 1;
  S.after_tag_using t.sched ~delay:t.prop_delay
    ~handle:(Array.unsafe_get t.handles i)
    t.arrive t

let arrived t =
  let i = t.head in
  let payload = Obj.obj (Array.unsafe_get t.slots i) in
  Array.unsafe_set t.slots i empty;
  t.head <- (i + 1) land mask t;
  t.flying <- t.flying - 1;
  t.deliver payload

let create ~sched ~bandwidth_bps ~prop_delay ~queue_capacity ~deliver ~dropped
    () =
  if bandwidth_bps <= 0. then invalid_arg "Link.create: bandwidth";
  if prop_delay < 0. then invalid_arg "Link.create: prop_delay";
  if queue_capacity <= 0 then invalid_arg "Link.create: queue_capacity";
  {
    sched;
    bandwidth_bps;
    prop_delay;
    queue_capacity;
    deliver;
    dropped;
    clock = S.clock sched;
    busy_until = { S.at = 0. };
    up = true;
    slots = Array.make initial_slots empty;
    handles = Array.init initial_slots (fun _ -> S.fresh_handle ());
    head = 0;
    queue_len = 0;
    flying = 0;
    tx_done = S.register sched transmitted;
    arrive = S.register sched arrived;
  }

let is_up t = t.up

let queue_length t = t.queue_len

let in_flight t = t.flying

let utilization_busy_until t = t.busy_until.at

(* Double the ring when every slot is live. Live slots move in FIFO order to
   the front, each with its own handle (queued events still reference it);
   the new slots get fresh handles. *)
let grow t =
  let n = Array.length t.slots in
  let m = mask t in
  let slot k = (t.head + k) land m in
  let slots = Array.make (2 * n) empty in
  for k = 0 to n - 1 do
    slots.(k) <- t.slots.(slot k)
  done;
  t.handles <-
    Array.init (2 * n) (fun k ->
        if k < n then t.handles.(slot k) else S.fresh_handle ());
  t.slots <- slots;
  t.head <- 0

let send t ?(reliable = false) ~size_bits payload =
  if not t.up then begin
    t.dropped payload Types.Link_down;
    Rejected Types.Link_down
  end
  else if t.queue_len >= t.queue_capacity && not reliable then begin
    t.dropped payload Types.Queue_overflow;
    Rejected Types.Queue_overflow
  end
  else begin
    let now = t.clock.now in
    let busy = t.busy_until.at in
    let start = if busy > now then busy else now in
    (* The new payload's transmission ends when the transmitter next goes
       idle, so [busy_until] doubles as its tx-done event time. *)
    t.busy_until.at <- start +. (float_of_int size_bits /. t.bandwidth_bps);
    let live = t.flying + t.queue_len in
    if live = Array.length t.slots then grow t;
    let i = (t.head + live) land mask t in
    Array.unsafe_set t.slots i (Obj.repr payload);
    t.queue_len <- t.queue_len + 1;
    S.schedule_tag_using t.sched ~at:t.busy_until
      ~handle:(Array.unsafe_get t.handles i)
      t.tx_done t;
    Sent
  end

let fail t =
  if t.up then begin
    t.up <- false;
    let live = t.flying + t.queue_len in
    let m = mask t in
    let victims =
      List.init live (fun k ->
          let i = (t.head + k) land m in
          S.cancel t.handles.(i);
          t.handles.(i) <- S.fresh_handle ();
          let payload = Obj.obj t.slots.(i) in
          t.slots.(i) <- empty;
          payload)
    in
    t.head <- 0;
    t.queue_len <- 0;
    t.flying <- 0;
    t.busy_until.at <- t.clock.now;
    List.iter (fun p -> t.dropped p Types.Link_down) victims
  end

let restore t =
  if not t.up then begin
    t.up <- true;
    t.busy_until.at <- t.clock.now
  end
