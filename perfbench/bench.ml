(* The campaign benchmark.

   Usage (from the repository root; perfbench/run.py builds and then runs
   the same program):
     dune exec --root . ./perfbench/bench.exe -- \
       --workload W --seed N --seconds S --trace 0|1
     dune exec --root . ./perfbench/bench.exe -- refs --workload W
   ([worker] and [probe-worker] are the proc backend's worker commands.)

   A run decomposes one workload into campaign cells, picks [k] seeds per
   stratum (a cell key without its seed) from the seed pool the reference
   rows cover, runs the cells through [Campaign.Driver.run_tasks] and checks
   every row against its reference. [k] scales with [--seconds].

   Host time is divided by the reference kernel ({!Refkernel}), sampled
   before and after every cell: each cell is measured in units of the
   samples that bracket it, and [ref_s], the pass's reference, is those
   samples weighted by cell duration. With [--trace 0] the run prints the
   end-to-end metrics; with [--trace 1] it runs the same cells untraced and
   then with [Obs.Prof] enabled, and prints per-layer metrics. The last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics. Traced runs write their spans to
   [_perfbench/].

   [refs] regenerates [perfbench/ref/W.json], the reference rows for the
   keys no committed artifact holds, and refuses to write them if any row
   disagrees with a committed one. *)

open Perfbench
module S = Campaign.Sections
module D = Campaign.Driver
module A = Campaign.Artifact
module Cell = Campaign.Cell_result
module X = Convergence.Experiments
module C = Convergence.Config
module P = Obs.Prof

let out_dir = "_perfbench"

let now_s = Measure.now_s

let section name =
  match S.find name with
  | Some s -> s
  | None -> failwith ("unknown campaign section " ^ name)

(* The [--quick] preset of [rcsim campaign], which wrote the committed
   quick artifacts. *)
let quick_base =
  {
    C.default with
    C.send_rate_pps = 100.;
    traffic_start = 60.;
    warmup = 70.;
    failure_time = 80.;
    sim_end = 220.;
  }

let mesh ~degree = Netsim.Mesh.generate ~rows:7 ~cols:7 ~degree

type workload = {
  name : string;
  section : S.t;
  mode : string;  (** sweep preset, as the cache and artifact record it *)
  sweep : X.sweep;  (** the seed pool: every seed references cover *)
  keep : S.task -> bool;
  k20 : int;
      (** seeds per stratum in a 20 s run: each run then takes 15-40 s on
          a 2-vCPU Xeon host, the workloads whose figures spread most
          getting the larger share *)
  committed : string list;  (** campaign artifacts holding reference rows *)
  generated : bool;  (** whether [perfbench/ref/<name>.json] holds rows *)
  proc : bool;  (** cold + warm via the proc backend and the cell cache *)
  build_topo : S.task -> Netsim.Topology.t;
      (** the topology build the cell performs, replayed from outside; a
          traced run checks it against the [edges] a topo cell reports *)
}

(* A topo cell's graph. Mirrors [topo_build] and its seeding in
   [topo_cell] (lib/campaign/sections.ml), which are private: keep the two
   in step. The traced run compares the edge count with the cell's. *)
let topo_graph (t : S.task) =
  let d = t.S.t_degree in
  let nodes = d mod 100_000 in
  let rng = Dessim.Rng.create (t.S.t_seed + (d * 7919)) in
  match d / 100_000 with
  | 1 -> Netsim.Random_topo.erdos_renyi rng ~nodes ~p:(6. /. float_of_int (nodes - 1))
  | 2 -> Netsim.Random_topo.barabasi_albert rng ~nodes ~m:2
  | _ -> Netsim.Random_topo.hierarchical_auto rng ~nodes

(* Whether a topo cell's flow survives any single link failure on its path
   ({!Flow_path}), by graph: the protocols of one seed share it. *)
let posed : (int * int, bool) Hashtbl.t = Hashtbl.create 64

let poses_scenario (t : S.task) =
  let key = (t.S.t_degree, t.S.t_seed) in
  match Hashtbl.find_opt posed key with
  | Some b -> b
  | None ->
    let g = topo_graph t in
    let dst = Flow_path.topo_dst g ~axis:t.S.t_degree ~seed:t.S.t_seed in
    let b = Flow_path.survives_any_failure g ~src:0 ~dst in
    Hashtbl.add posed key b;
    b

(* Why these four: each exercises layers the others bypass, so a change to
   one layer should move some workloads and leave the rest flat.
   - paper-grid: the paper's fig3 cells on the 7x7 mesh; forwarding and
     the scheduler dominate, protocol handlers are a small share.
   - ctrl-128: 128-node ER, BA and hierarchical graphs with the quiescence
     oracle; the control plane dominates. 256-node cells cost 3.6 s on
     average (up to 10 s for BGP-3 on ER), too slow for a per-cell tail
     inside a run; 128 nodes keep the regime at a seventh of the cost.
     Graphs in which a bridge separates the flow's endpoints do not pose
     the paper's scenario and are left out of the pool: ER seeds 1, 9
     and 11 of 12.
   - resilience-proc: fast-reroute cells through supervised worker
     processes, cold into an empty cache and then warm; the only user of
     Proc_backend IPC, Cache and frr.
   - faults-loss: control-plane loss and link flaps; the only user of
     Perturb ingress and Rtx retransmission. *)
let workloads =
  [
    {
      name = "paper-grid";
      section = section "fig3";
      mode = "full";
      sweep = X.paper_sweep;
      keep = (fun _ -> true);
      k20 = 3;
      committed = [ "BENCH_fig3.json" ];
      generated = false;
      proc = false;
      build_topo = (fun t -> mesh ~degree:t.S.t_degree);
    };
    {
      name = "ctrl-128";
      section = section "topo";
      mode = "quick";
      sweep = { X.degrees = [ 128 ]; runs = 12; base = quick_base };
      (* the topo section's axis code is family * 100000 + nodes; family 0,
         the mesh, is the paper-grid's regime *)
      keep = (fun t -> t.S.t_degree >= 100_000 && poses_scenario t);
      k20 = 5;
      committed = [];
      generated = true;
      proc = false;
      build_topo = topo_graph;
    };
    {
      name = "resilience-proc";
      section = section "resilience";
      mode = "quick";
      sweep = { X.degrees = [ 3; 4; 6 ]; runs = 6; base = quick_base };
      keep = (fun _ -> true);
      k20 = 2;
      committed = [ "BENCH_resilience_quick.json" ];
      generated = true;
      proc = true;
      build_topo = (fun t -> mesh ~degree:(t.S.t_degree mod 1000));
    };
    {
      name = "faults-loss";
      section = section "faults";
      mode = "quick";
      sweep = { X.degrees = [ quick_base.C.degree ]; runs = 16; base = quick_base };
      keep = (fun _ -> true);
      k20 = 5;
      committed = [];
      generated = true;
      proc = false;
      build_topo = (fun _ -> mesh ~degree:quick_base.C.degree);
    };
  ]

let ref_path w = Filename.concat "perfbench" (Filename.concat "ref" (w.name ^ ".json"))

(* ---------- cell selection ---------- *)

let pool w =
  Array.of_list (List.filter w.keep (Array.to_list (w.section.S.tasks w.sweep)))

(* Seeds per stratum: [k20] scaled to [seconds], but enough cells for a
   tail percentile with ten cells beyond it that is not the median. *)
let per_stratum w ~seconds ~strata =
  let fill = int_of_float (Float.round (seconds /. 20. *. float_of_int w.k20)) in
  min w.sweep.X.runs (max fill ((22 + strata - 1) / strata))

(* [k] distinct seeds per (protocol, degree) stratum, drawn from the pool
   by [seed]; the result keeps the section's canonical task order. *)
let select ?k w ~seed ~seconds =
  let tasks = pool w in
  let seeds = Hashtbl.create 64 and order = ref [] in
  Array.iter
    (fun (t : S.task) ->
      let key = (t.S.t_protocol, t.S.t_degree) in
      match Hashtbl.find_opt seeds key with
      | None ->
        Hashtbl.add seeds key [ t.S.t_seed ];
        order := key :: !order
      | Some l -> Hashtbl.replace seeds key (t.S.t_seed :: l))
    tasks;
  let k =
    match k with
    | Some k -> k
    | None -> per_stratum w ~seconds ~strata:(List.length !order)
  in
  let rng = Random.State.make [| seed |] in
  let chosen = Hashtbl.create 256 in
  List.iter
    (fun key ->
      let a = Array.of_list (List.rev (Hashtbl.find seeds key)) in
      let n = Array.length a in
      for i = 0 to min k n - 1 do
        let j = i + Random.State.int rng (n - i) in
        let s = a.(j) in
        a.(j) <- a.(i);
        a.(i) <- s;
        Hashtbl.replace chosen (key, s) ()
      done)
    (List.rev !order);
  Array.of_list
    (List.filter
       (fun (t : S.task) ->
         Hashtbl.mem chosen ((t.S.t_protocol, t.S.t_degree), t.S.t_seed))
       (Array.to_list tasks))

(* ---------- measurement ---------- *)

let vmhwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some kb -> kb /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' s)

let perf_of (c : Cell.t) name =
  Option.value ~default:0. (List.assoc_opt name c.Cell.perf)

(* BGP and BGP-3 are one engine with two configurations and share their
   profiler scopes, so handler time is split by protocol per cell: cells
   run one at a time, and the scope totals' growth across a cell is that
   cell's. *)
let on_message_ns () =
  List.fold_left
    (fun acc (s : P.stat) ->
      if String.ends_with ~suffix:".on_message" s.P.st_name then
        acc +. s.P.st_total_ns
      else acc)
    0. (P.stats ())

let on_message_by_protocol : (string, float) Hashtbl.t = Hashtbl.create 4

let wrap (t : S.task) =
  {
    t with
    S.t_run =
      (fun () ->
        let traced = P.enabled () in
        let m0 = if traced then on_message_ns () else 0. in
        let c, m = Measure.cell t.S.t_run in
        if traced then begin
          let prev =
            Option.value ~default:0.
              (Hashtbl.find_opt on_message_by_protocol t.S.t_protocol)
          in
          Hashtbl.replace on_message_by_protocol t.S.t_protocol
            (prev +. on_message_ns () -. m0)
        end;
        { c with Cell.perf = Measure.perf m });
  }

type pass = {
  cells : Cell.t array;
  quarantined : A.quarantine list;
  timing : A.timing;
  attempted : int;
  wall_s : float;  (** [run_tasks] wall-clock net of the reference kernel *)
  local_refs : float array;  (** each cell's bracketing reference *)
  samples : float list;  (** every reference-kernel sample *)
}

let perfs name cells = Array.map (fun c -> perf_of c name) cells

(* [run_tasks] with the benchmark's own clock around it: its [t_wall_s]
   starts after the cache lookups, which a user waits for too. *)
let timed_run_tasks f =
  let t0 = now_s () in
  let r = Spans.with_span "campaign.run_tasks" f in
  (r, now_s () -. t0)

let run_inprocess tasks =
  let (cells, quarantined, timing), elapsed =
    timed_run_tasks (fun () -> D.run_tasks ~jobs:1 (Array.map wrap tasks))
  in
  let last = Refkernel.run () in
  let overhead =
    Array.fold_left
      (fun acc (c : Cell.t) -> acc +. (c.Cell.wall_s -. perf_of c "cell_s"))
      0. cells
  in
  (* Cells run one after another, so the sample before the next cell is
     the sample after this one. *)
  let before = perfs "ref_s" cells in
  let n = Array.length before in
  let after = Array.init n (fun i -> if i + 1 < n then before.(i + 1) else last) in
  {
    cells;
    quarantined;
    timing;
    attempted = Array.length tasks;
    wall_s = elapsed -. overhead;
    local_refs = Stats.bracketed ~before ~after;
    samples = last :: Array.to_list before;
  }

let jobs () = max 1 (min 2 (Domain.recommended_domain_count ()))

let worker_argv ?(cmd = "worker") w ~seed ~seconds =
  [|
    Sys.executable_name;
    cmd;
    "--workload";
    w.name;
    "--seed";
    string_of_int seed;
    "--seconds";
    string_of_float seconds;
  |]

(* What the workers spent outside their cells ([overhead_s]: the kernel
   samples and the bookkeeping around them) lay on their own critical
   paths: its sum over [jobs] is what it added to the campaign's
   wall-clock. *)
let run_proc w ~seed ~seconds ~cache tasks =
  let jobs = jobs () in
  let (cells, quarantined, timing), elapsed =
    timed_run_tasks (fun () ->
        D.run_tasks ~jobs ~cache
          ~backend:(D.Proc { argv = worker_argv w ~seed ~seconds })
          tasks)
  in
  let before = perfs "ref_s" cells and after = perfs "ref_after_s" cells in
  let overhead_s = Array.fold_left ( +. ) 0. (perfs "overhead_s" cells) in
  {
    cells;
    quarantined;
    timing;
    attempted = Array.length tasks;
    wall_s = elapsed -. (overhead_s /. float_of_int jobs);
    local_refs = Stats.bracketed ~before ~after;
    samples = Array.to_list before @ Array.to_list after;
  }

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let cache_ctx w =
  {
    Campaign.Cache.git_sha = A.git_sha ();
    family = w.section.S.family;
    mode = w.mode;
    runs = Some w.sweep.X.runs;
    degrees = None;
    seed = None;
  }

(* The proc workload: cold into an empty cache, then warm from it. *)
let cold_warm w ~seed ~seconds tasks =
  let dir = Filename.concat out_dir (Printf.sprintf "cache-%d" (Unix.getpid ())) in
  rm_rf dir;
  let pass () =
    run_proc w ~seed ~seconds ~cache:(Campaign.Cache.open_ ~dir (cache_ctx w)) tasks
  in
  let cold = pass () in
  let warm = pass () in
  rm_rf dir;
  [ cold; warm ]

(* ---------- output checking ---------- *)

let load_refs w =
  let tbl = Hashtbl.create 1024 in
  List.iter (Rows.add_artifact tbl) w.committed;
  if w.generated then Rows.add_rows_file tbl (ref_path w);
  tbl

let extra (c : Cell.t) name =
  Option.value ~default:0. (List.assoc_opt name c.Cell.extras)

(* Failed cells of a pass: quarantined or never finished, a row that
   differs from (or has no) reference, or oracle mismatches. *)
let failures refs (p : pass) =
  let bad =
    Array.fold_left
      (fun acc (c : Cell.t) ->
        let row =
          match Hashtbl.find_opt refs (Cell.key c) with
          | None -> [ "no reference row" ]
          | Some r -> Rows.diff ~reference:r c
        in
        let oracle = extra c "oracle_mismatches" > 0. in
        if row = [] && not oracle then acc
        else begin
          let pr, d, s = Cell.key c in
          Printf.eprintf "perfbench: cell %s:%d:%d failed: %s\n%!" pr d s
            (String.concat ", "
               (row @ if oracle then [ "oracle mismatches" ] else []));
          acc + 1
        end)
      0 p.cells
  in
  let missing = p.attempted - Array.length p.cells - List.length p.quarantined in
  List.iter
    (fun (q : A.quarantine) ->
      Printf.eprintf "perfbench: cell %s:%d:%d quarantined: %s\n%!"
        q.A.q_protocol q.A.q_degree q.A.q_seed q.A.q_error)
    p.quarantined;
  bad + missing + List.length p.quarantined

(* ---------- set-up ---------- *)

(* A cell that hands back its reference row, stamped with the time it
   started: what a probe runs instead of the simulation. *)
let probe_cell ~start_s refs (t : S.task) =
  match Hashtbl.find_opt refs (D.task_key t) with
  | Some (c : Cell.t) -> { c with Cell.perf = [ ("start_s", start_s) ] }
  | None -> failwith "no reference row"

(* Set-up is everything a user waits for before the first cell starts:
   decomposing the workload, opening the cache and, for the proc workload,
   starting the workers until one starts a cell. A probe runs that path
   itself -- [select], [Cache.open_], [run_tasks] with [probe_cell] cells,
   in process or in [probe-worker] processes -- and stops the campaign
   once the first cell is done ([stop_after]). Returns the set-up time and
   the time from [run_tasks] to the first cell. *)
let probe w ~seed ~seconds refs ~dir =
  let t0 = now_s () in
  let tasks = Spans.with_span "sections.tasks" (fun () -> select w ~seed ~seconds) in
  let cells, r0 =
    if w.proc then begin
      let cache =
        Spans.with_span "campaign.cache.open" (fun () ->
            Campaign.Cache.open_ ~dir (cache_ctx w))
      in
      let r0 = now_s () in
      let argv = worker_argv ~cmd:"probe-worker" w ~seed ~seconds in
      let cells, _, _ =
        Spans.with_span "campaign.run_tasks" (fun () ->
            D.run_tasks ~jobs:(jobs ()) ~cache ~stop_after:1
              ~backend:(D.Proc { argv }) tasks)
      in
      (cells, r0)
    end
    else
      let tasks =
        Array.map
          (fun t ->
            { t with S.t_run = (fun () -> probe_cell ~start_s:(now_s ()) refs t) })
          tasks
      in
      let r0 = now_s () in
      let cells, _, _ =
        Spans.with_span "campaign.run_tasks" (fun () -> D.run_tasks ~stop_after:1 tasks)
      in
      (cells, r0)
  in
  Dessim.Scheduler.clear_stop ();
  rm_rf dir;
  match Array.to_list (perfs "start_s" cells) with
  | [] -> failwith "set-up probe started no cell"
  | starts ->
    let first = List.fold_left Float.min Float.infinity starts in
    (first -. t0, first -. r0)

(* Set-up probes, with a reference-kernel sample before each and one
   after the last. Returns the median set-up time, that median in units of
   the kernel samples bracketing each probe, and the median time from
   [run_tasks] to the first cell. *)
let setup_probes = 21

let measure_setup w ~seed ~seconds refs =
  let runs =
    List.init setup_probes (fun i ->
        let ref_s = Refkernel.run () in
        let dir =
          Filename.concat out_dir (Printf.sprintf "probe-%d-%d" (Unix.getpid ()) i)
        in
        (ref_s, probe w ~seed ~seconds refs ~dir))
  in
  let before = Array.of_list (List.map fst runs) in
  let n = Array.length before in
  let last = Refkernel.run () in
  let after = Array.init n (fun i -> if i + 1 < n then before.(i + 1) else last) in
  let local = Stats.bracketed ~before ~after in
  let setup = List.map (fun (_, (s, _)) -> s) runs in
  ( Stats.median setup,
    Stats.median (List.mapi (fun i s -> Stats.normalise ~ref_s:local.(i) s) setup),
    Stats.median (List.map (fun (_, (_, r)) -> r) runs) )

(* ---------- reporting ---------- *)

let sum f p = Array.fold_left (fun acc c -> acc +. f c) 0. p.cells

let cell_total = sum (fun c -> perf_of c "cell_s")

let wall_total passes = List.fold_left (fun acc p -> acc +. p.wall_s) 0. passes

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | s -> (
    let lines = String.split_on_char '\n' s in
    match
      List.find_opt
        (fun l -> String.length l > 10 && String.sub l 0 10 = "model name")
        lines
    with
    | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
    | None -> "unknown")

let fingerprint () =
  [
    ("cpu", cpu_model ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("git", A.git_sha ());
  ]

(* The pass's reference time: each cell's bracketing kernel samples,
   weighted by the cell's duration. *)
let pass_ref p =
  Stats.weighted_ref ~cell_s:(perfs "cell_s" p.cells) ~local_ref:p.local_refs

let cell_refs p =
  Array.to_list
    (Array.mapi
       (fun i c -> Stats.normalise ~ref_s:p.local_refs.(i) c)
       (perfs "cell_s" p.cells))

(* The reference figures every run prints beside the host fingerprint, so
   drift between runs is visible. *)
let print_ref label p =
  Printf.printf
    "ref_s (%s): %.6f s; kernel samples median %.6f s, IQR %.1f%% of median, n=%d\n"
    label (pass_ref p) (Stats.median p.samples)
    (100. *. Stats.iqr_share p.samples)
    (List.length p.samples)

(* ---------- the two kinds of run ---------- *)

type metric = string * float * string

let end_to_end w ~seed ~seconds refs_tbl =
  let setup_raw, setup_ref, _ = measure_setup w ~seed ~seconds refs_tbl in
  (* Reported in seconds of a host on which the kernel takes
     [Refkernel.nominal_s]: in raw seconds set-up moved by a third between
     runs of the same code as the host changed speed. *)
  let setup_s = setup_ref *. Refkernel.nominal_s in
  Printf.printf "setup: %.6f s raw, %.4f ref, %.6f s at nominal speed (median of %d)\n"
    setup_raw setup_ref setup_s setup_probes;
  let tasks = select w ~seed ~seconds in
  let passes, rss_workers =
    if w.proc then begin
      let passes = cold_warm w ~seed ~seconds tasks in
      let rss =
        List.fold_left
          (fun m p ->
            Array.fold_left (fun m c -> Float.max m (perf_of c "vmhwm_mb")) m p.cells)
          0. passes
      in
      (passes, rss)
    end
    else ([ run_inprocess tasks ], 0.)
  in
  let first = List.hd passes in
  let ref_s = pass_ref first in
  print_ref "cells" first;
  let cell_refs = cell_refs first in
  let tail =
    match Stats.tail cell_refs with
    | Some t -> t
    | None -> failwith "too few cells for a tail percentile"
  in
  Printf.printf "cell times: n=%d, tail is p%d of n=%d\n" (List.length cell_refs)
    tail.Stats.t_pct tail.Stats.t_n;
  let wall_s = wall_total passes in
  (* Raw seconds are printed but not part of the result: on a shared host
     they move by a fifth between runs of the same code, more than any
     bound could absorb. *)
  Printf.printf "wall_s: %.3f s\n" wall_s;
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("wall_ref", Stats.normalise ~ref_s wall_s, "ref");
      ("cell_ref_p50", Stats.median cell_refs, "ref");
      ("cell_ref_tail", tail.Stats.t_value, "ref");
      ("peak_rss_mb", Float.max (vmhwm_mb ()) rss_workers, "MB");
      ("alloc_mw", sum (fun c -> perf_of c "minor_words") first /. 1e6, "Mwords");
    ]
  in
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + failures refs_tbl p) 0 passes in
  (metrics, attempted, failed)

let protocols = [ "RIP"; "DBF"; "BGP"; "BGP-3" ]

(* Seconds and calls a profiler scope recorded; [proto.*.kind] sums the
   handler scopes of every protocol. *)
let scope_total ~kind stats =
  let pick name =
    List.filter_map
      (fun (s : P.stat) -> if s.P.st_name = name then Some s else None)
      stats
  in
  let names =
    match kind with
    | `Scope name -> [ name ]
    | `Handler h -> List.map (fun p -> Printf.sprintf "proto.%s.%s" p h) protocols
  in
  List.fold_left
    (fun (ns, calls) s ->
      (ns +. (s.P.st_total_ns *. 1e-9), calls +. float_of_int s.P.st_calls))
    (0., 0.)
    (List.concat_map pick names)

(* Median of [num] cell times over median of [den] cell times, where the
   two sets are matched by everything but one axis. *)
let median_ratio p ~num ~den =
  let pick f =
    Array.to_list p.cells |> List.filter f |> List.map (fun c -> perf_of c "cell_s")
  in
  match (pick num, pick den) with
  | [], _ | _, [] -> 0.
  | a, b -> Stats.median a /. Stats.median b

let timed f =
  let t0 = now_s () in
  f ();
  now_s () -. t0

(* The campaign layer's rows: from the proc workload's cold and warm
   passes, or from the in-process [run_tasks] around the untraced pass. *)
let campaign_rows ~ready_s ~untraced = function
  | [ cold; warm ] ->
    let exec p =
      match p.timing.A.t_exec with
      | Some x -> x
      | None -> failwith "proc run without an exec block"
    in
    let xc = exec cold and xw = exec warm in
    let both f = float_of_int (f xc + f xw) in
    let busy = float_of_int cold.timing.A.t_jobs *. cold.wall_s in
    [
      ("campaign.overhead_share", (busy -. cell_total cold) /. busy, "share");
      ("campaign.proc.spawns", both (fun x -> x.A.x_spawns), "count");
      ("campaign.proc.restarts", both (fun x -> x.A.x_restarts), "count");
      ("campaign.proc.ready_s", ready_s, "s");
      ("campaign.cache.hits", both (fun x -> x.A.x_cache_hits), "count");
      ("campaign.cache.misses", both (fun x -> x.A.x_cache_misses), "count");
      ("campaign.cache.warm_share", warm.wall_s /. cold.wall_s, "share");
    ]
  | _ ->
    [
      ( "campaign.overhead_share",
        (untraced.wall_s -. cell_total untraced) /. untraced.wall_s,
        "share" );
      ("campaign.proc.spawns", 0., "count");
      ("campaign.proc.restarts", 0., "count");
      ("campaign.proc.ready_s", 0., "s");
      ("campaign.cache.hits", 0., "count");
      ("campaign.cache.misses", 0., "count");
      ("campaign.cache.warm_share", 0., "share");
    ]

let per_layer w ~seed ~seconds refs_tbl =
  let ready_s =
    if w.proc then
      let _, _, r = measure_setup w ~seed ~seconds refs_tbl in
      r
    else 0.
  in
  (* The proc workload's campaign rows come from a real cold + warm proc
     run. The layers are measured on one seed per stratum, in process so
     the proc workload's scopes are visible too: shares and counts need no
     tail, and the traced run, which runs its cells twice, stays short. *)
  let proc_passes =
    if w.proc then cold_warm w ~seed ~seconds (select w ~seed ~seconds) else []
  in
  let traced_tasks = select ~k:1 w ~seed ~seconds in
  let untraced = run_inprocess traced_tasks in
  P.reset ();
  P.set_enabled true;
  let traced = run_inprocess traced_tasks in
  P.set_enabled false;
  let stats = P.stats () in
  (* Replays each cell's topology build; where the cell reports its edge
     count, a replay that builds another graph fails the run. *)
  let by_key = Hashtbl.create 64 in
  Array.iter (fun c -> Hashtbl.replace by_key (Cell.key c) c) traced.cells;
  let topo_s = ref 0. and topo_diverged = ref 0 in
  Array.iter
    (fun t ->
      let t0 = now_s () in
      let g = Spans.with_span "netsim.topo_build" (fun () -> w.build_topo t) in
      topo_s := !topo_s +. (now_s () -. t0);
      match Hashtbl.find_opt by_key (D.task_key t) with
      | Some c -> (
        match List.assoc_opt "edges" c.Cell.extras with
        | Some e when e <> float_of_int (Netsim.Topology.edge_count g) ->
          let pr, d, s = Cell.key c in
          Printf.eprintf
            "perfbench: cell %s:%d:%d has %g edges, its replayed topology %d\n%!"
            pr d s e (Netsim.Topology.edge_count g);
          incr topo_diverged
        | _ -> ())
      | None -> ())
    traced_tasks;
  let topo_s = !topo_s in
  let artifact_s =
    timed (fun () ->
        Spans.with_span "campaign.artifact" (fun () ->
            ignore
              (A.to_string
                 (D.artifact_of ~section:w.section ~mode:w.mode ~timing:traced.timing
                    ~quarantined:traced.quarantined w.sweep traced.cells))))
  in
  let cell_sum = cell_total traced in
  let share x = x /. cell_sum in
  let run_s, _ = scope_total ~kind:(`Scope "engine.run") stats in
  let fwd_s, fwd_calls = scope_total ~kind:(`Scope "engine.forward") stats in
  let msg_s, msg_calls = scope_total ~kind:(`Handler "on_message") stats in
  let timer_s, timer_calls = scope_total ~kind:(`Handler "timer") stats in
  let oracle_s =
    fst (scope_total ~kind:(`Scope "check.oracle") stats)
    +. fst (scope_total ~kind:(`Scope "check.oracle_frr") stats)
  in
  let residual_s = run_s -. fwd_s -. msg_s -. timer_s in
  let unattributed_s = cell_sum -. run_s -. oracle_s -. topo_s in
  let wall_ref p = p.wall_s /. pass_ref p in
  let base = match proc_passes with cold :: _ -> cold | [] -> untraced in
  let per_cell f = sum f base /. float_of_int (Array.length base.cells) in
  let all_passes = proc_passes @ [ untraced; traced ] in
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 all_passes in
  let failed =
    List.fold_left (fun acc p -> acc + failures refs_tbl p) !topo_diverged all_passes
  in
  print_ref "untraced" untraced;
  print_ref "traced" traced;
  let axis name value (c : Cell.t) = List.assoc_opt name c.Cell.axes = Some value in
  let handler_share p =
    share (1e-9 *. Option.value ~default:0. (Hashtbl.find_opt on_message_by_protocol p))
  in
  let metrics =
    [
      ("host.ref_s", pass_ref untraced, "s");
      ("host.wall_s", wall_total (if w.proc then proc_passes else [ untraced ]), "s");
      ("dessim.events", sum (fun c -> float_of_int c.Cell.events) untraced, "count");
      ("dessim.residual_share", share residual_s, "share");
      ("convergence.forward_calls", fwd_calls, "count");
      ("convergence.forward_share", share fwd_s, "share");
      ("protocols.on_message_calls", msg_calls, "count");
      ("protocols.timer_calls", timer_calls, "count");
      ("protocols.on_message_share", share msg_s, "share");
      ("protocols.timer_share", share timer_s, "share");
    ]
    @ List.map
        (fun p -> ("protocols." ^ p ^ ".on_message_share", handler_share p, "share"))
        protocols
    @ [
        ("netsim.topo_build_share", share topo_s, "share");
        ("check.oracle_share", share oracle_s, "share");
        ( "check.oracle_mismatches",
          sum (fun c -> extra c "oracle_mismatches") untraced,
          "count" );
        ("check.failed_share", float_of_int failed /. float_of_int attempted, "share");
        ("cell.unattributed_share", share unattributed_s, "share");
        ("frr.installs", sum (fun c -> extra c "frr_installs") base, "count");
        ("frr.forwards", sum (fun c -> extra c "frr_forwards") base, "count");
        ("frr.exhausted", sum (fun c -> extra c "frr_exhausted") base, "count");
        ( "frr.on_off_ratio",
          median_ratio base ~num:(axis "frr" "on") ~den:(axis "frr" "off"),
          "ratio" );
        ( "fault.retransmissions",
          sum (fun c -> extra c "retransmissions") untraced,
          "count" );
        ( "fault.injected_ctrl_drops",
          sum (fun c -> extra c "injected_ctrl_drops") untraced,
          "count" );
        ( "fault.loss_cost_ratio",
          (* faults cells carry the loss percentage in their degree field *)
          (if w.section.S.family = "faults" then
             median_ratio untraced
               ~num:(fun c -> c.Cell.degree = 10)
               ~den:(fun c -> c.Cell.degree = 0)
           else 0.),
          "ratio" );
      ]
    @ campaign_rows ~ready_s ~untraced proc_passes
    @ [
        ("campaign.artifact_share", share artifact_s, "share");
        ( "gc.minor_words_per_event",
          sum (fun c -> perf_of c "minor_words") base
          /. sum (fun c -> float_of_int c.Cell.events) base,
          "words" );
        ("gc.promoted_words", per_cell (fun c -> perf_of c "promoted_words"), "words");
        ( "gc.major_collections",
          per_cell (fun c -> perf_of c "major_collections"),
          "count" );
        ("obs.prof_overhead", wall_ref traced /. wall_ref untraced, "ratio");
      ]
  in
  Printf.printf
    "cell time decomposition (traced, n=%d, %.3f s): residual %.3f + forward \
     %.3f + on_message %.3f + timer %.3f + oracle %.3f + topo_build %.3f + \
     unattributed %.3f = 1\n"
    (Array.length traced.cells) cell_sum (share residual_s) (share fwd_s)
    (share msg_s) (share timer_s) (share oracle_s) (share topo_s)
    (share unattributed_s);
  (metrics, attempted, failed)

(* ---------- entry points ---------- *)

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-36s %16.6f  %s\n" name v unit)
    metrics;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 ( name,
                   Obs.Json.Obj
                     [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ] ))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json)

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    failwith
      (Printf.sprintf "unknown workload %S (one of %s)" name
         (String.concat ", " (List.map (fun w -> w.name) workloads)))

let bench w ~seed ~seconds ~trace =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let refs_tbl = load_refs w in
  (* The pool's scenario check builds graphs of its own: done here, it
     stays out of the timed set-up. *)
  ignore (pool w);
  let fp = fingerprint () in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%b\n" w.name
    seed seconds trace;
  Printf.printf "host: %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) fp));
  Spans.on := trace;
  let metrics, attempted, failed =
    if trace then per_layer w ~seed ~seconds refs_tbl
    else end_to_end w ~seed ~seconds refs_tbl
  in
  if trace then begin
    let path =
      Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" w.name seed)
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc
          (Obs.Json.to_string
             (Spans.to_json
                (("workload", Obs.Json.String w.name)
                :: ("seed", Obs.Json.Int seed)
                :: List.map (fun (k, v) -> (k, Obs.Json.String v)) fp))));
    Printf.printf "spans: %s\n" path
  end;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  print_result ~correct:(failed = 0 && finite) ~attempted ~failed metrics

let gen_refs w =
  let tbl = Hashtbl.create 1024 in
  List.iter (Rows.add_artifact tbl) w.committed;
  let tasks = pool w in
  let cells =
    Array.mapi
      (fun i t ->
        match D.attempt_once t with
        | Ok c ->
          Printf.eprintf "\r%s: %d/%d%!" w.name (i + 1) (Array.length tasks);
          Rows.add tbl ~source:"fresh run" c;
          c
        | Error e -> failwith e)
      tasks
  in
  prerr_newline ();
  Out_channel.with_open_bin (ref_path w) (fun oc ->
      output_string oc (Rows.rows_to_string (Array.to_list cells)));
  Printf.printf "%s: %d rows\n" (ref_path w) (Array.length cells)

(* The proc backend's worker. A [probe] worker runs [probe_cell]s, whose
   reference rows it loads once the first cell has started. *)
let worker ~probe w ~seed ~seconds =
  let tasks = select w ~seed ~seconds in
  let refs = lazy (load_refs w) in
  let run_cell i =
    if i < 0 || i >= Array.length tasks then
      Error (Printf.sprintf "cell index %d out of range" i)
    else if probe then
      (* stamp before the reference rows load: set-up ends here *)
      let start_s = now_s () in
      Ok (0., probe_cell ~start_s (Lazy.force refs) tasks.(i))
    else
      let result, m, ref_after, overhead_s =
        Measure.bracketed (fun () -> D.attempt_once tasks.(i))
      in
      match result with
      | Ok c ->
        let extra =
          [
            ("ref_after_s", ref_after);
            ("overhead_s", overhead_s);
            ("vmhwm_mb", vmhwm_mb ());
          ]
        in
        Ok (m.Measure.cell_s, { c with Cell.perf = extra @ Measure.perf m })
      | Error e -> Error e
  in
  Campaign.Proc_backend.worker ~run_cell ()

let usage () =
  prerr_endline
    "usage: bench.exe [worker|probe-worker|refs] --workload W [--seed N] [--seconds S] \
     [--trace 0|1]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, args =
    match args with
    | ("worker" | "probe-worker" | "refs") as c :: rest -> (c, rest)
    | rest -> ("bench", rest)
  in
  let rec parse acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get name default conv =
    match List.assoc_opt name opts with
    | None -> default
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ())
    opts;
  match List.assoc_opt "workload" opts with
  | None -> usage ()
  | Some name -> (
    let seed = get "seed" 1 int_of_string_opt in
    let seconds = get "seconds" 20. float_of_string_opt in
    let trace = get "trace" 0 int_of_string_opt in
    if seconds <= 0. || (trace <> 0 && trace <> 1) then usage ();
    try
      let w = find_workload name in
      match cmd with
      | "worker" -> worker ~probe:false w ~seed ~seconds
      | "probe-worker" -> worker ~probe:true w ~seed ~seconds
      | "refs" -> gen_refs w
      | _ -> bench w ~seed ~seconds ~trace:(trace = 1)
    with Failure msg | Sys_error msg ->
      Printf.eprintf "perfbench: %s\n%!" msg;
      exit 1)
