(* The hash-table BGP with full-rescan route selection, kept verbatim as a
   differential oracle.

   This is [Protocols.Bgp] as it was before selection became incremental
   and its state dense: Adj-RIB-in, best routes and MRAI gates in hash
   tables, and every heard route re-selected by scanning all up neighbors.
   [test_differential] drives it and [Protocols.Bgp] with the same message
   and link-event streams and requires the same routes, the same sends and
   the same route-change notifications after every step. Only the trace
   note was adapted to the optional [note] action. Wire types and configs
   are [Protocols.Bgp]'s own, so messages compare directly. *)

open Protocols
open Protocols.Bgp

(* The best route to a destination: which neighbor it came from and the path
   exactly as that neighbor advertised it (neighbor first, dst last). *)
type best = { via : Netsim.Types.node_id; path_rx : Netsim.Types.node_id list }

type gate = {
  mutable closed : bool;
  pending : (Netsim.Types.node_id, unit) Hashtbl.t;
}

(* Route-flap-damping bookkeeping, per (neighbor, destination): an
   exponentially decaying penalty; crossing [cutoff] suppresses the rib
   entry until the penalty decays below [reuse]. *)
type rfd_entry = {
  mutable penalty : float;
  mutable stamp : float;  (* when [penalty] was last materialized *)
  mutable suppressed : bool;
}

type t = {
  cfg : config;
  rng : Dessim.Rng.t;
  id : Netsim.Types.node_id;
  actions : message Proto_intf.actions;
  mutable up : Netsim.Types.node_id list;
  rib_in :
    (Netsim.Types.node_id, (Netsim.Types.node_id, Netsim.Types.node_id list) Hashtbl.t)
    Hashtbl.t;
  best : (Netsim.Types.node_id, best) Hashtbl.t;
  fib : Route_table.t;
      (* dense mirror of [best] (metric = received path length, next hop =
         [via]), maintained by [recompute] so the per-hop forwarding query
         never hashes *)
  gates : (Netsim.Types.node_id, gate) Hashtbl.t;  (* Per_neighbor scope *)
  pd_gates : (Netsim.Types.node_id * Netsim.Types.node_id, gate) Hashtbl.t;
      (* Per_destination scope, keyed by (neighbor, dst) *)
  rfd_table : (Netsim.Types.node_id * Netsim.Types.node_id, rfd_entry) Hashtbl.t;
  mutable started : bool;
}

let create cfg ~rng ~id ~neighbors ~actions =
  {
    cfg;
    rng;
    id;
    actions;
    up = List.sort compare neighbors;
    rib_in = Hashtbl.create 8;
    best = Hashtbl.create 64;
    fib = Route_table.create ();
    gates = Hashtbl.create 8;
    pd_gates = Hashtbl.create 64;
    rfd_table = Hashtbl.create 64;
    started = false;
  }

let neighbor_rib t neighbor =
  match Hashtbl.find_opt t.rib_in neighbor with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.replace t.rib_in neighbor tbl;
    tbl

let rib_in_path t ~neighbor ~dst =
  match Hashtbl.find_opt t.rib_in neighbor with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl dst

let best_path t ~dst =
  if dst = t.id then Some [ t.id ]
  else
    match Hashtbl.find_opt t.best dst with
    | Some b -> Some (t.id :: b.path_rx)
    | None -> None

let my_path t dst =
  match best_path t ~dst with
  | Some p -> p
  | None -> invalid_arg "Bgp.my_path: no route"

let mrai_delay t =
  let lo = t.cfg.mrai_mean *. (1. -. t.cfg.mrai_jitter) in
  let hi = t.cfg.mrai_mean *. (1. +. t.cfg.mrai_jitter) in
  Dessim.Rng.uniform t.rng lo hi

let gate_for t neighbor dst =
  let find_or_create tbl key =
    match Hashtbl.find_opt tbl key with
    | Some g -> g
    | None ->
      let g = { closed = false; pending = Hashtbl.create 8 } in
      Hashtbl.replace tbl key g;
      g
  in
  match t.cfg.mrai_scope with
  | Per_neighbor -> find_or_create t.gates neighbor
  | Per_destination -> find_or_create t.pd_gates (neighbor, dst)

let send_update_now t neighbor dst =
  t.actions.Proto_intf.send neighbor (Update { dst; path = my_path t dst })

(* Advertise a batch of changed destinations to [neighbor], subject to the
   MRAI gate. Following the paper's Section 4.3: a router that has just
   processed an event sends updates for *all* the paths that changed, then
   turns the (per-neighbor) timer on; destinations changing while the timer
   runs accumulate and flush in one batch (with then-current state) when it
   expires, which closes it again. *)
let rec advertise_batch t neighbor dsts =
  if dsts <> [] && List.mem neighbor t.up then begin
    match t.cfg.mrai_scope with
    | Per_neighbor ->
      let g = gate_for t neighbor 0 in
      if g.closed then begin
        List.iter (fun d -> Hashtbl.replace g.pending d ()) dsts;
        Option.iter
          (fun note ->
            note (Proto_intf.Mrai_deferred { neighbor; dsts = List.length dsts }))
          t.actions.Proto_intf.note
      end
      else begin
        List.iter (send_update_now t neighbor) dsts;
        close_gate t neighbor g
      end
    | Per_destination ->
      let per_dst dst =
        let g = gate_for t neighbor dst in
        if g.closed then begin
          Hashtbl.replace g.pending dst ();
          Option.iter
            (fun note -> note (Proto_intf.Mrai_deferred { neighbor; dsts = 1 }))
            t.actions.Proto_intf.note
        end
        else begin
          send_update_now t neighbor dst;
          close_gate t neighbor g
        end
      in
      List.iter per_dst dsts
  end

and close_gate t neighbor g =
  g.closed <- true;
  ignore
    (t.actions.Proto_intf.after (mrai_delay t) (fun () ->
         g.closed <- false;
         let pend =
           Hashtbl.fold (fun d () acc -> d :: acc) g.pending [] |> List.sort compare
         in
         Hashtbl.reset g.pending;
         if List.mem neighbor t.up then begin
           let live = List.filter (fun d -> d = t.id || Hashtbl.mem t.best d) pend in
           advertise_batch t neighbor live
         end))

let drop_pending t neighbor dst =
  let g = gate_for t neighbor dst in
  Hashtbl.remove g.pending dst

let rfd_decayed (c : rfd_config) (e : rfd_entry) ~now =
  e.penalty *. (0.5 ** ((now -. e.stamp) /. c.half_life))

let rfd_suppressed t ~neighbor ~dst =
  match t.cfg.rfd with
  | None -> false
  | Some _ -> (
    match Hashtbl.find_opt t.rfd_table (neighbor, dst) with
    | Some e -> e.suppressed
    | None -> false)

(* Recompute the best route to [dst]; shortest path wins, ties broken by the
   lowest neighbor id (standard BGP-style deterministic tie-break: no
   incumbent stickiness, so equal-length alternates can be explored — the
   source of the transient-loop dynamics the paper studies). Suppressed
   (flap-damped) rib entries are not eligible. *)
type transition = Unchanged | Changed | Lost

let recompute t dst =
  if dst = t.id then Unchanged
  else begin
    let incumbent = Hashtbl.find_opt t.best dst in
    let ordered_neighbors = t.up in
    let consider acc neighbor =
      match rib_in_path t ~neighbor ~dst with
      | None -> acc
      | Some _ when rfd_suppressed t ~neighbor ~dst -> acc
      | Some path ->
        let len = List.length path in
        (match acc with
        | Some (best_len, _, _) when best_len <= len -> acc
        | Some _ | None -> Some (len, neighbor, path))
    in
    let winner = List.fold_left consider None ordered_neighbors in
    match (incumbent, winner) with
    | None, None -> Unchanged
    | Some old, Some (_, via, path) when old.via = via && old.path_rx = path ->
      Unchanged
    | _, Some (len, via, path) ->
      Hashtbl.replace t.best dst { via; path_rx = path };
      Route_table.set t.fib ~dst ~metric:len ~next_hop:via;
      t.actions.Proto_intf.route_changed dst;
      Changed
    | Some _, None ->
      Hashtbl.remove t.best dst;
      Route_table.set t.fib ~dst ~metric:(-1) ~next_hop:(-1);
      t.actions.Proto_intf.route_changed dst;
      Lost
  end

(* Push the consequences of recomputed destinations to all up neighbors:
   lost destinations produce one immediate batched withdrawal; changed ones
   go through the MRAI gate. *)
let propagate t ~lost ~updated =
  let to_neighbor neighbor =
    (match lost with
    | [] -> ()
    | dsts ->
      List.iter (fun d -> drop_pending t neighbor d) dsts;
      t.actions.Proto_intf.send neighbor (Withdraw { dsts })
    );
    advertise_batch t neighbor updated
  in
  if lost <> [] || updated <> [] then List.iter to_neighbor t.up

let recompute_and_propagate t dsts =
  let classify (lost, updated) dst =
    match recompute t dst with
    | Unchanged -> (lost, updated)
    | Changed -> (lost, dst :: updated)
    | Lost -> (dst :: lost, updated)
  in
  let lost, updated = List.fold_left classify ([], []) dsts in
  propagate t ~lost:(List.sort compare lost) ~updated:(List.sort compare updated)

(* Charge a flap penalty against (neighbor, dst) and suppress the entry when
   the penalty crosses the cutoff; a timer releases it once the exponential
   decay reaches the reuse threshold (capped by [max_suppress]). *)
let rfd_penalize t ~neighbor ~dst amount =
  match t.cfg.rfd with
  | None -> ()
  | Some c ->
    let now = t.actions.Proto_intf.now () in
    let e =
      match Hashtbl.find_opt t.rfd_table (neighbor, dst) with
      | Some e -> e
      | None ->
        let e = { penalty = 0.; stamp = now; suppressed = false } in
        Hashtbl.replace t.rfd_table (neighbor, dst) e;
        e
    in
    e.penalty <- rfd_decayed c e ~now +. amount;
    e.stamp <- now;
    if e.penalty >= c.cutoff && not e.suppressed then begin
      e.suppressed <- true;
      let release_delay =
        Float.min c.max_suppress
          (c.half_life *. (Float.log (e.penalty /. c.reuse) /. Float.log 2.))
      in
      ignore
        (t.actions.Proto_intf.after release_delay (fun () ->
             if e.suppressed then begin
               e.suppressed <- false;
               let now = t.actions.Proto_intf.now () in
               e.penalty <- Float.min (rfd_decayed c e ~now) c.reuse;
               e.stamp <- now;
               recompute_and_propagate t [ dst ]
             end))
    end

let start t =
  if t.started then invalid_arg "Bgp.start: already started";
  t.started <- true;
  List.iter (fun n -> advertise_batch t n [ t.id ]) t.up

let on_message t ~from msg =
  if List.mem from t.up then begin
    match msg with
    | Update { dst; path } ->
      let rib = neighbor_rib t from in
      let previous = Hashtbl.find_opt rib dst in
      (* Loop detection: a path through ourselves is unusable; the paper
         treats it as an implicit withdrawal. *)
      if List.mem t.id path then begin
        Hashtbl.remove rib dst;
        (match t.cfg.rfd with
        | Some c when previous <> None ->
          rfd_penalize t ~neighbor:from ~dst c.withdrawal_penalty
        | Some _ | None -> ())
      end
      else begin
        Hashtbl.replace rib dst path;
        match (t.cfg.rfd, previous) with
        | Some c, Some old when old <> path ->
          rfd_penalize t ~neighbor:from ~dst c.update_penalty
        | (Some _ | None), _ -> ()
      end;
      recompute_and_propagate t [ dst ]
    | Withdraw { dsts } ->
      let rib = neighbor_rib t from in
      let withdraw_one dst =
        let existed = Hashtbl.mem rib dst in
        Hashtbl.remove rib dst;
        match t.cfg.rfd with
        | Some c when existed ->
          rfd_penalize t ~neighbor:from ~dst c.withdrawal_penalty
        | Some _ | None -> ()
      in
      List.iter withdraw_one dsts;
      recompute_and_propagate t dsts
  end

let on_link_down t ~neighbor =
  t.up <- List.filter (fun n -> n <> neighbor) t.up;
  (* The session is gone: discard Adj-RIB-in and rate-limiter state. *)
  let affected =
    match Hashtbl.find_opt t.rib_in neighbor with
    | None -> []
    | Some tbl ->
      let dsts = Hashtbl.fold (fun d _ acc -> d :: acc) tbl [] in
      Hashtbl.remove t.rib_in neighbor;
      List.sort compare dsts
  in
  Hashtbl.remove t.gates neighbor;
  Hashtbl.iter
    (fun (n, d) _ -> if n = neighbor then Hashtbl.remove t.pd_gates (n, d))
    (Hashtbl.copy t.pd_gates);
  recompute_and_propagate t affected

let on_link_up t ~neighbor =
  if not (List.mem neighbor t.up) then begin
    t.up <- List.sort compare (neighbor :: t.up);
    (* Session (re)establishment: the initial table exchange is not subject
       to the MRAI timer. *)
    let dsts =
      t.id :: (Hashtbl.fold (fun d _ acc -> d :: acc) t.best [] |> List.sort compare)
    in
    List.iter (send_update_now t neighbor) dsts;
    let g = gate_for t neighbor t.id in
    if not g.closed then close_gate t neighbor g
  end

let next_hop t ~dst =
  if dst = t.id then None else Route_table.next_hop t.fib dst

let metric t ~dst =
  if dst = t.id then Some 0
  else
    let m = Route_table.metric t.fib dst in
    if m < 0 then None else Some m

let known_destinations t =
  let dsts = Hashtbl.fold (fun d _ acc -> d :: acc) t.best [] in
  List.sort compare (t.id :: dsts)
