(* Order statistics for the benchmark's reports. Every figure a run prints
   is a median or a stated percentile of per-cell samples, so the rules for
   picking them live here, apart from the timing code, where the self-tests
   can pin them down. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The mean of the two middle values for an even count. *)
let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear-interpolated quartiles over the n + 1 gaps between samples, the
   method Python's [statistics.quantiles(xs, n=4)] uses by default, so the
   spread a run prints is the spread an outside checker computes. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let q j =
    let m = j * (n + 1) in
    let k = min (n - 1) (max 1 (m / 4)) in
    let frac = float_of_int (m - (k * 4)) /. 4. in
    a.(k - 1) +. ((a.(k) -. a.(k - 1)) *. frac)
  in
  (q 1, q 2, q 3)

let iqr_share xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then Float.nan else (q3 -. q1) /. q2

(* The tail a run reports: the highest nearest-rank percentile that still
   leaves at least [beyond] samples strictly above its rank. With [n]
   samples that is rank [n - beyond]. A rank at or below the median's
   (ceil n/2) would make the "tail" the median itself, so such a sample
   count has no tail. Returns the percentile (rank as a share of n, in
   percent, rounded down), the value at that rank and n. *)
type tail = { t_pct : int; t_value : float; t_n : int }

let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = n - beyond in
  if rank <= (n + 1) / 2 then None
  else Some { t_pct = rank * 100 / n; t_value = a.(rank - 1); t_n = n }

(* Host time in units of the reference kernel. The kernel's work is fixed,
   so dividing by its duration cancels how fast the host ran at the time. *)
let normalise ~ref_s x =
  if not (Float.is_finite ref_s && ref_s > 0.) then
    invalid_arg (Printf.sprintf "Stats.normalise: bad reference time %g" ref_s);
  x /. ref_s

(* The host switches between faster and slower states on a scale of
   seconds, so a cell is best compared with the kernel samples taken right
   before and right after it: its local reference is their mean. *)
let bracketed ~before ~after =
  if Array.length before <> Array.length after then
    invalid_arg "Stats.bracketed: one sample before and one after each cell";
  Array.map2 (fun b a -> (b +. a) /. 2.) before after

(* One reference time for a set of cells: their total time over their total
   time in local-reference units, i.e. the local references weighted by how
   long each cell ran. *)
let weighted_ref ~cell_s ~local_ref =
  let total = Array.fold_left ( +. ) 0. cell_s in
  let units = ref 0. in
  Array.iteri (fun i c -> units := !units +. normalise ~ref_s:local_ref.(i) c) cell_s;
  total /. !units
