(* Self-tests for the benchmark's pure helpers: the tail-percentile rule,
   the quartiles the spread is computed from, reference-time
   normalisation, row comparison, the kernel time a proc run subtracts,
   and the topo scenario check. Run with [dune test perfbench]. *)

let close a b = Float.abs (a -. b) < 1e-9

let test_median () =
  Alcotest.(check (float 1e-12)) "odd" 2. (Perfbench.Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "even" 2.5 (Perfbench.Stats.median [ 4.; 1.; 3.; 2. ])

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, q2, q3 =
    Perfbench.Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1)))
  in
  Alcotest.(check bool) "1..10" true (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = Perfbench.Stats.quartiles [ 5.; 1.; 4. ] in
  Alcotest.(check bool) "three" true (close q1 1. && close q2 4. && close q3 5.)

let test_tail () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (* 21 samples: rank 11 is the median's own rank, so no tail *)
  Alcotest.(check bool) "n=21 has no tail" true (Perfbench.Stats.tail (xs 21) = None);
  (match Perfbench.Stats.tail (xs 22) with
  | Some t ->
    Alcotest.(check int) "n=22 rank 12" 54 t.Perfbench.Stats.t_pct;
    Alcotest.(check (float 0.)) "n=22 value" 12. t.Perfbench.Stats.t_value
  | None -> Alcotest.fail "n=22 should have a tail");
  match Perfbench.Stats.tail (List.rev (xs 100)) with
  | Some t ->
    Alcotest.(check int) "n=100 is p90" 90 t.Perfbench.Stats.t_pct;
    Alcotest.(check (float 0.)) "ten samples beyond" 90. t.Perfbench.Stats.t_value;
    Alcotest.(check int) "n stated" 100 t.Perfbench.Stats.t_n
  | None -> Alcotest.fail "n=100 should have a tail"

let test_normalise () =
  let ref_s = Perfbench.Stats.median [ 0.002; 0.004; 0.003 ] in
  Alcotest.(check (float 1e-9))
    "in kernel units" 100.
    (Perfbench.Stats.normalise ~ref_s 0.3);
  List.iter
    (fun bad ->
      match Perfbench.Stats.normalise ~ref_s:bad 1. with
      | _ -> Alcotest.failf "reference %g accepted" bad
      | exception Invalid_argument _ -> ())
    [ 0.; -1.; Float.nan; Float.infinity ]

(* A host that runs at half speed for the second cell: bracketing each
   cell by its own kernel samples gives both cells the same size in
   reference units, and the pass reference weights the slow state by the
   time spent in it. *)
let test_local_refs () =
  let local_ref =
    Perfbench.Stats.bracketed ~before:[| 0.002; 0.004 |] ~after:[| 0.002; 0.004 |]
  in
  let cell_s = [| 0.2; 0.4 |] in
  Array.iteri
    (fun i c ->
      Alcotest.(check (float 1e-9)) "same cell, same units" 100.
        (Perfbench.Stats.normalise ~ref_s:local_ref.(i) c))
    cell_s;
  Alcotest.(check (float 1e-12)) "duration-weighted" 0.003
    (Perfbench.Stats.weighted_ref ~cell_s ~local_ref);
  match Perfbench.Stats.bracketed ~before:[| 1. |] ~after:[||] with
  | _ -> Alcotest.fail "unpaired samples accepted"
  | exception Invalid_argument _ -> ()

(* A proc run subtracts each worker cell's [overhead_s] from its
   wall-clock. That must cover every timed kernel execution: each sample
   is the mean of two, so at least twice each sample, besides the untimed
   warm-ups. *)
let test_overhead () =
  for _ = 1 to 3 do
    let (), m, after, overhead_s = Perfbench.Measure.bracketed (fun () -> ()) in
    let timed = 2. *. (m.Perfbench.Measure.ref_s +. after) in
    if overhead_s < timed then
      Alcotest.failf "overhead %g s is less than the timed kernel runs, %g s"
        overhead_s timed
  done

let row ?(extras = []) ?(seed = 1) delivered =
  {
    Campaign.Cell_result.protocol = "RIP";
    degree = 4;
    seed;
    sent = 100;
    delivered;
    drops_no_route = 0;
    drops_ttl = 0;
    drops_queue = 0;
    drops_link = 0;
    looped_delivered = 0;
    looped_dropped = 0;
    ctrl_messages = 7;
    ctrl_bytes = 70;
    fwd_convergence = Float.nan;
    routing_convergence = 1.5;
    transient_paths = 0;
    extras;
    axes = [];
    series = [];
    wall_s = 0.;
    perf = [];
    events = 0;
  }

let test_rows () =
  let diff reference got = Perfbench.Rows.diff ~reference got in
  Alcotest.(check (list string)) "identical, NaN included" [] (diff (row 90) (row 90));
  Alcotest.(check (list string)) "timing ignored" []
    (diff (row 90)
       { (row 90) with Campaign.Cell_result.wall_s = 3.; perf = [ ("x", 1.) ] });
  Alcotest.(check (list string)) "field" [ "delivered" ] (diff (row 90) (row 91));
  Alcotest.(check (list string)) "key" [ "key" ] (diff (row 90) (row ~seed:2 90));
  Alcotest.(check (list string)) "extra value" [ "oracle_mismatches" ]
    (diff (row ~extras:[ ("oracle_mismatches", 0.) ] 90)
       (row ~extras:[ ("oracle_mismatches", 1.) ] 90));
  Alcotest.(check (list string)) "missing and unexpected extras" [ "a"; "b" ]
    (diff (row ~extras:[ ("a", 0.) ] 90) (row ~extras:[ ("b", 0.) ] 90))

(* A ring 0-1-2-3-0 with a tail 3-4: the ring survives any one failure,
   the tail's link is a bridge. *)
let test_flow_path () =
  let g =
    Netsim.Topology.create ~nodes:5 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0); (3, 4) ]
  in
  let survives dst = Perfbench.Flow_path.survives_any_failure g ~src:0 ~dst in
  Alcotest.(check bool) "across the ring" true (survives 2);
  Alcotest.(check bool) "past the bridge" false (survives 4);
  let split = Netsim.Topology.create ~nodes:3 ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "unreachable" false
    (Perfbench.Flow_path.survives_any_failure split ~src:0 ~dst:2)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "ref_s normalisation" `Quick test_normalise;
          Alcotest.test_case "local references" `Quick test_local_refs;
          Alcotest.test_case "proc kernel overhead" `Quick test_overhead;
        ] );
      ("rows", [ Alcotest.test_case "row comparison" `Quick test_rows ]);
      ("topo", [ Alcotest.test_case "scenario check" `Quick test_flow_path ]);
    ]
