(* The reference kernel: a fixed amount of stdlib-only work timed between
   the benchmark's cells. Half of it churns a hash table and sorts a
   freshly allocated list of tuples; the other half is a small discrete
   event loop, a binary min-heap of float times whose events are closures
   that schedule further events, which is the simulator's own inner loop.
   It calls nothing under lib/, so no change to the simulator can move its
   duration. Host drift moves it and the cells alike, which is what
   dividing by it cancels. The event loop is there because this host
   alternates between a fast and a slow state, and measured over 150 s a
   7x7 paper cell took 1.56x longer in the slow state, the event loop
   1.59x and the table-and-sort half alone 1.42x: without the loop, a run
   in the slow state read about a tenth slower in reference units.

   No block it allocates is larger than the minor heap takes (the table
   keeps 256 buckets, the event heap's arrays are made once), and each half's
   allocation fits in one default minor heap (256k words), which is
   emptied before it. So no collection runs while the clock does, and the
   time does not depend on the heap the cells left behind. *)

let table_keys = 500
let churn_ops = 20_000
let sort_len = 2_000

(* xorshift64* truncated to OCaml's 63-bit ints: deterministic, no
   allocation. *)
let work () =
  let x = ref 0x2545F4914F6CDD1D in
  let next () =
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    v land max_int
  in
  let h = Hashtbl.create 256 in
  for i = 1 to churn_ops do
    let k = next () mod table_keys in
    if Hashtbl.mem h k then Hashtbl.replace h k (Hashtbl.find h k + i)
    else Hashtbl.add h k i;
    if i land 3 = 0 then Hashtbl.remove h (next () mod table_keys)
  done;
  let l = List.init sort_len (fun _ -> let v = next () in (v land 0xffff, v)) in
  let l = List.sort compare l in
  Hashtbl.fold (fun k v acc -> acc + k + v) h 0
  + List.fold_left (fun acc (a, b) -> acc lxor (a + b)) 0 l

let heap_cap = 2048
let heap_events = 15_000

let times = Array.make heap_cap 0.
let acts = Array.make heap_cap ignore

let event_loop () =
  let size = ref 0 in
  let push t f =
    let i = ref !size in
    incr size;
    while !i > 0 && times.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      times.(!i) <- times.(p);
      acts.(!i) <- acts.(p);
      i := p
    done;
    times.(!i) <- t;
    acts.(!i) <- f
  in
  let pop () =
    let t = times.(0) and f = acts.(0) in
    decr size;
    let lt = times.(!size) and lf = acts.(!size) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !size then fin := true
      else begin
        let c = if l + 1 < !size && times.(l + 1) < times.(l) then l + 1 else l in
        if times.(c) < lt then begin
          times.(!i) <- times.(c);
          acts.(!i) <- acts.(c);
          i := c
        end
        else fin := true
      end
    done;
    times.(!i) <- lt;
    acts.(!i) <- lf;
    (t, f)
  in
  let x = ref 12345 and fired = ref 0 in
  let rec event now () =
    incr fired;
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    if !fired < heap_events then
      push (now +. float_of_int (!x land 1023)) (event (now +. 1.))
  in
  for _ = 1 to 1000 do
    push 0. (event 0.)
  done;
  while !size > 0 do
    let _, f = pop () in
    f ()
  done;
  (* Drop the spent closures, or the next minor collection would promote
     them into the major heap the cells share. *)
  Array.fill acts 0 heap_cap ignore;
  !fired

let timed work =
  Gc.minor ();
  let t0 = Obs.Prof.now_ns () in
  let r = work () in
  let dt = Int64.to_float (Int64.sub (Obs.Prof.now_ns ()) t0) *. 1e-9 in
  (* keep [work] from being optimised into nothing *)
  if r = min_int then prerr_string "";
  dt

let execution () = timed work +. timed event_loop

(* A sample's length on a nominal host, about what it measures on the
   2-vCPU Xeon host the benchmark was tuned on. Times in reference units
   times this are seconds at that host's speed. *)
let nominal_s = 0.005

(* One sample, in seconds: the mean of two timed executions after an
   untimed one has brought the kernel's code and data back into cache, so
   the sample does not depend on how much of the cache the previous cell
   evicted. *)
let run () =
  ignore (execution ());
  let a = execution () in
  let b = execution () in
  (a +. b) /. 2.
