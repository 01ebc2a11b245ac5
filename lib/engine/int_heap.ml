(* Structure-of-arrays 4-ary min-heap with [int] payloads.

   This is [Heap] specialised to immediate payloads for the scheduler's hot
   loop. The scheduler stores its event cells in a side pool and queues only
   each cell's pool index, so all three arrays here are unboxed ([float
   array], two [int array]s). That removes the two GC costs the generic
   heap's [Obj.t array] cannot avoid: the write barrier on every payload
   move a sift performs, and major-heap scanning of a queue that reaches
   10^5 entries in the distance-vector campaigns.

   Ordering and layout are identical to [Heap] — [(time, seq)] is a strict
   total order, and the differential suite drives both implementations plus
   the reference binary heap through the same streams and requires identical
   pop sequences. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let ensure_capacity t =
  let cap = Array.length t.seqs in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let times = Array.make ncap 0.0 in
    let seqs = Array.make ncap 0 in
    let vals = Array.make ncap 0 in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.vals <- vals
  end

(* Unsafe accesses below: every index is bounded by [t.size] (a child index
   is compared against [n] before use, an ancestor index only shrinks), and
   the arrays' capacity is at least [t.size]. *)

type slot = { mutable slot_time : float }

let slot () = { slot_time = 0.0 }

let add t key ~seq v =
  let time = key.slot_time in
  ensure_capacity t;
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let peek_time (t : t) (out : slot) : bool =
  if t.size = 0 then false
  else begin
    out.slot_time <- Array.unsafe_get t.times 0;
    true
  end

let peek_key (t : t) (out : slot) ~(seq : int ref) : bool =
  if t.size = 0 then false
  else begin
    out.slot_time <- Array.unsafe_get t.times 0;
    seq := Array.unsafe_get t.seqs 0;
    true
  end

let pop_into (t : t) (out : slot) ~(seq : int ref) : int =
  if t.size = 0 then invalid_arg "Int_heap.pop_into: empty heap"
  else begin
    let times = t.times and seqs = t.seqs and vals = t.vals in
    out.slot_time <- Array.unsafe_get times 0;
    seq := Array.unsafe_get seqs 0;
    let rv = Array.unsafe_get vals 0 in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let ltime = Array.unsafe_get times n and lseq = Array.unsafe_get seqs n in
      let lv = Array.unsafe_get vals n in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let first = (4 * !i) + 1 in
        if first >= n then continue := false
        else begin
          let last = if first + 3 < n - 1 then first + 3 else n - 1 in
          let c = ref first in
          let ct = ref (Array.unsafe_get times first) in
          let cs = ref (Array.unsafe_get seqs first) in
          for k = first + 1 to last do
            let kt = Array.unsafe_get times k in
            if kt < !ct || (kt = !ct && Array.unsafe_get seqs k < !cs) then begin
              c := k;
              ct := kt;
              cs := Array.unsafe_get seqs k
            end
          done;
          if !ct < ltime || (!ct = ltime && !cs < lseq) then begin
            let c = !c in
            Array.unsafe_set times !i !ct;
            Array.unsafe_set seqs !i !cs;
            Array.unsafe_set vals !i (Array.unsafe_get vals c);
            i := c
          end
          else continue := false
        end
      done;
      Array.unsafe_set times !i ltime;
      Array.unsafe_set seqs !i lseq;
      Array.unsafe_set vals !i lv
    end;
    rv
  end

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.vals <- [||];
  t.size <- 0
