(* One cell's measurement: a reference-kernel sample, then the cell on its
   own clock with its allocation counted. What is measured rides back in
   the cell's transient [perf] under the names below. *)

module P = Obs.Prof

let now_s () = Int64.to_float (P.now_ns ()) *. 1e-9

type t = {
  ref_s : float;  (** the kernel sample taken right before the cell *)
  cell_s : float;
  gc : P.gc_delta;
}

let cell run =
  let ref_s = Refkernel.run () in
  (* Empty minor heaps at both ends make the allocation count exact. *)
  Gc.minor ();
  let t0 = now_s () in
  let (r, cell_s), gc =
    P.gc_delta (fun () ->
        let r = Spans.with_span "sections.t_run" run in
        let dt = now_s () -. t0 in
        Gc.minor ();
        (r, dt))
  in
  (r, { ref_s; cell_s; gc })

let perf m =
  [
    ("cell_s", m.cell_s);
    ("ref_s", m.ref_s);
    ("minor_words", m.gc.P.d_minor_words);
    ("promoted_words", m.gc.P.d_promoted_words);
    ("major_collections", float_of_int m.gc.P.d_major_collections);
  ]

(* A cell as a proc worker runs it: kernel samples before and after, so
   the cell has its own bracket. Also returns [overhead_s], the wall time
   of everything in the call but the cell: both samples (each an untimed
   warm-up and two timed executions) and the bookkeeping between them.
   That is what the benchmark added to the worker's critical path. *)
let bracketed run =
  let t0 = now_s () in
  let r, m = cell run in
  let ref_after = Refkernel.run () in
  let overhead_s = now_s () -. t0 -. m.cell_s in
  (r, m, ref_after, overhead_s)
