type mrai_scope = Per_neighbor | Per_destination

type rfd_config = {
  half_life : float;
  cutoff : float;
  reuse : float;
  max_suppress : float;
  withdrawal_penalty : float;
  update_penalty : float;
}

let default_rfd =
  {
    half_life = 60.;
    cutoff = 2.;
    reuse = 0.75;
    max_suppress = 240.;
    withdrawal_penalty = 1.;
    update_penalty = 0.5;
  }

type config = {
  mrai_mean : float;
  mrai_jitter : float;
  mrai_scope : mrai_scope;
  rfd : rfd_config option;
  header_bytes : int;
  dst_bytes : int;
  hop_bytes : int;
}

type message =
  | Update of { dst : Netsim.Types.node_id; path : Netsim.Types.node_id list }
  | Withdraw of { dsts : Netsim.Types.node_id list }

let name = "BGP"

let uses_reliable_transport = true

let default_config =
  {
    mrai_mean = 30.;
    mrai_jitter = 0.25;
    mrai_scope = Per_neighbor;
    rfd = None;
    header_bytes = 19;
    dst_bytes = 4;
    hop_bytes = 2;
  }

let fast_config = { default_config with mrai_mean = 3. }

let message_size_bits msg =
  let c = default_config in
  let bytes =
    match msg with
    | Update { path; _ } -> c.header_bytes + c.dst_bytes + (c.hop_bytes * List.length path)
    | Withdraw { dsts } -> c.header_bytes + (c.dst_bytes * List.length dsts)
  in
  8 * bytes

let message_kind = function
  | Update _ -> Proto_intf.Update
  | Withdraw _ -> Proto_intf.Withdrawal

let pp_message ppf = function
  | Update { dst; path } ->
    Fmt.pf ppf "update dst=%d path=%a" dst Netsim.Types.pp_path path
  | Withdraw { dsts } ->
    Fmt.pf ppf "withdraw %a" Fmt.(list ~sep:(any ",") int) dsts

(* One session with a neighbor: its Adj-RIB-in and the MRAI gate state for
   advertisements to it, all dense by destination id. The record is dropped
   when the link goes down; a gate timer still outstanding then keeps
   working on the orphan, as the per-session gate it was armed for. *)
type session = {
  rib : Netsim.Types.node_id list Route_table.Vec.t;
      (* the path as the neighbor advertised it (neighbor first, dst last);
         [] means nothing heard, as no advertised path is empty *)
  rib_len : Route_table.Int_vec.t;  (* [List.length] of the rib path *)
  mutable closed : bool;  (* the Per_neighbor gate *)
  pending : Route_table.Bit_vec.t;
      (* destinations queued behind a closed gate, flushed ascending *)
  pd_closed : Route_table.Bit_vec.t;  (* the Per_destination gates *)
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
  sessions : session option Route_table.Vec.t;  (* by neighbor id *)
  best : Netsim.Types.node_id list Route_table.Vec.t;
      (* the selected path exactly as its neighbor advertised it; [] means
         no route. Selection state beside it lives in [fib]. *)
  fib : Route_table.t;
      (* metric = selected path length, next hop = the neighbor it came
         from; kept with [best] so the per-hop forwarding query and the
         selection compare never walk a path *)
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
    sessions = Route_table.Vec.create ~default:None;
    best = Route_table.Vec.create ~default:[];
    fib = Route_table.create ();
    rfd_table = Hashtbl.create 64;
    started = false;
  }

let session t neighbor =
  match Route_table.Vec.get t.sessions neighbor with
  | Some s -> s
  | None ->
    let s =
      {
        rib = Route_table.Vec.create ~default:[];
        rib_len = Route_table.Int_vec.create ~default:0;
        closed = false;
        pending = Route_table.Bit_vec.create ();
        pd_closed = Route_table.Bit_vec.create ();
      }
    in
    Route_table.Vec.set t.sessions neighbor (Some s);
    s

let rib_in_path t ~neighbor ~dst =
  match Route_table.Vec.get t.sessions neighbor with
  | None -> None
  | Some s -> (
    match Route_table.Vec.get s.rib dst with [] -> None | path -> Some path)

let set_rib s dst path =
  Route_table.Vec.set s.rib dst path;
  Route_table.Int_vec.set s.rib_len dst (List.length path)

let has_route t dst = Route_table.Vec.get t.best dst <> []

let best_path t ~dst =
  if dst = t.id then Some [ t.id ]
  else
    match Route_table.Vec.get t.best dst with
    | [] -> None
    | path_rx -> Some (t.id :: path_rx)

let my_path t dst =
  match best_path t ~dst with
  | Some p -> p
  | None -> invalid_arg "Bgp.my_path: no route"

let mrai_delay t =
  let lo = t.cfg.mrai_mean *. (1. -. t.cfg.mrai_jitter) in
  let hi = t.cfg.mrai_mean *. (1. +. t.cfg.mrai_jitter) in
  Dessim.Rng.uniform t.rng lo hi

let note_deferred t neighbor dsts =
  match t.actions.Proto_intf.note with
  | Some note -> note (Proto_intf.Mrai_deferred { neighbor; dsts })
  | None -> ()

let pending_destinations s =
  let pend = ref [] in
  Route_table.Bit_vec.iter s.pending (fun d -> pend := d :: !pend);
  List.rev !pend

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
    let s = session t neighbor in
    match t.cfg.mrai_scope with
    | Per_neighbor ->
      if s.closed then begin
        List.iter (fun d -> Route_table.Bit_vec.set s.pending d true) dsts;
        note_deferred t neighbor (List.length dsts)
      end
      else begin
        List.iter (send_update_now t neighbor) dsts;
        close_gate t neighbor s
      end
    | Per_destination ->
      let per_dst dst =
        if Route_table.Bit_vec.get s.pd_closed dst then begin
          Route_table.Bit_vec.set s.pending dst true;
          note_deferred t neighbor 1
        end
        else begin
          send_update_now t neighbor dst;
          close_dst_gate t neighbor s dst
        end
      in
      List.iter per_dst dsts
  end

(* On expiry the gate opens and its queued destinations still routed go out
   as one batch, which closes it again. [s] may be an orphan by then: its
   queue is flushed all the same if the neighbor is back up. *)
and close_gate t neighbor s =
  s.closed <- true;
  ignore
    (t.actions.Proto_intf.after (mrai_delay t) (fun () ->
         s.closed <- false;
         let pend = pending_destinations s in
         List.iter (fun d -> Route_table.Bit_vec.set s.pending d false) pend;
         if List.mem neighbor t.up then
           advertise_batch t neighbor
             (List.filter (fun d -> d = t.id || has_route t d) pend)))

and close_dst_gate t neighbor s dst =
  Route_table.Bit_vec.set s.pd_closed dst true;
  ignore
    (t.actions.Proto_intf.after (mrai_delay t) (fun () ->
         Route_table.Bit_vec.set s.pd_closed dst false;
         let pending = Route_table.Bit_vec.get s.pending dst in
         Route_table.Bit_vec.set s.pending dst false;
         if pending && List.mem neighbor t.up && (dst = t.id || has_route t dst)
         then advertise_batch t neighbor [ dst ]))

let drop_pending t neighbor dst =
  match Route_table.Vec.get t.sessions neighbor with
  | Some s -> Route_table.Bit_vec.set s.pending dst false
  | None -> ()

let mrai_pending t ~neighbor =
  match Route_table.Vec.get t.sessions neighbor with
  | Some s -> pending_destinations s
  | None -> []

let mrai_closed t ~neighbor ~dst =
  match Route_table.Vec.get t.sessions neighbor with
  | None -> false
  | Some s -> (
    match t.cfg.mrai_scope with
    | Per_neighbor -> s.closed
    | Per_destination -> Route_table.Bit_vec.get s.pd_closed dst)

let rfd_decayed (c : rfd_config) (e : rfd_entry) ~now =
  e.penalty *. (0.5 ** ((now -. e.stamp) /. c.half_life))

let rfd_suppressed t ~neighbor ~dst =
  match t.cfg.rfd with
  | None -> false
  | Some _ -> (
    match Hashtbl.find_opt t.rfd_table (neighbor, dst) with
    | Some e -> e.suppressed
    | None -> false)

(* The path [neighbor] offers for [dst] that selection may use: [] when
   nothing was heard or flap damping suppresses the entry. *)
let offer t s ~neighbor ~dst =
  match Route_table.Vec.get s.rib dst with
  | [] -> []
  | _ when rfd_suppressed t ~neighbor ~dst -> []
  | path -> path

type transition = Unchanged | Changed | Lost

(* Make [via]'s [path] (of length [len]) the route to [dst]; [path] = []
   removes the route. The caller has established that this differs from the
   stored route. *)
let install t dst ~via ~len path =
  Route_table.Vec.set t.best dst path;
  if path = [] then Route_table.set t.fib ~dst ~metric:(-1) ~next_hop:(-1)
  else Route_table.set t.fib ~dst ~metric:len ~next_hop:via;
  t.actions.Proto_intf.route_changed dst;
  if path = [] then Lost else Changed

(* Recompute the best route to [dst] from every session; shortest path
   wins, ties broken by the lowest neighbor id (standard BGP-style
   deterministic tie-break: no incumbent stickiness, so equal-length
   alternates can be explored — the source of the transient-loop dynamics
   the paper studies). Suppressed (flap-damped) rib entries are not
   eligible. *)
let recompute t dst =
  if dst = t.id then Unchanged
  else begin
    let best_len = ref max_int and best_via = ref (-1) and best = ref [] in
    List.iter
      (fun neighbor ->
        match Route_table.Vec.get t.sessions neighbor with
        | None -> ()
        | Some s -> (
          match offer t s ~neighbor ~dst with
          | [] -> ()
          | path ->
            let len = Route_table.Int_vec.get s.rib_len dst in
            if len < !best_len then begin
              best_len := len;
              best_via := neighbor;
              best := path
            end))
      t.up;
    let incumbent = Route_table.Vec.get t.best dst in
    if
      (incumbent = [] && !best = [])
      || (!best <> []
         && Route_table.next_hop_id t.fib dst = !best_via
         && incumbent = !best)
    then Unchanged
    else install t dst ~via:!best_via ~len:!best_len !best
  end

(* Re-select [dst] after only [neighbor]'s offer for it changed. The stored
   route is what [recompute] returned before the change, so the full rescan
   is needed only when the route was [neighbor]'s and that offer got longer
   or went away; otherwise [neighbor] either now wins on (length, neighbor
   id) or nothing moves. *)
let reselect t ~neighbor dst =
  if dst = t.id then Unchanged
  else begin
    let path, len =
      match Route_table.Vec.get t.sessions neighbor with
      | None -> ([], max_int)
      | Some s -> (
        match offer t s ~neighbor ~dst with
        | [] -> ([], max_int)
        | path -> (path, Route_table.Int_vec.get s.rib_len dst))
    in
    match Route_table.Vec.get t.best dst with
    | [] -> if path = [] then Unchanged else install t dst ~via:neighbor ~len path
    | incumbent ->
      let via = Route_table.next_hop_id t.fib dst in
      let cur_len = Route_table.metric t.fib dst in
      if neighbor = via then begin
        if len > cur_len then recompute t dst
        else if path = incumbent then Unchanged
        else install t dst ~via ~len path
      end
      else if len < cur_len || (len = cur_len && neighbor < via) then
        install t dst ~via:neighbor ~len path
      else Unchanged
  end

(* Push the consequences of re-selected destinations to all up neighbors:
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

(* Select [dsts] and propagate. [from] is the one neighbor whose offers for
   [dsts] changed, or [rescan] to recompute from every session. *)
let rescan = -1

let select_and_propagate t ~from dsts =
  let classify (lost, updated) dst =
    let transition =
      if from = rescan then recompute t dst else reselect t ~neighbor:from dst
    in
    match transition with
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
               select_and_propagate t ~from:rescan [ dst ]
             end))
    end

let start t =
  if t.started then invalid_arg "Bgp.start: already started";
  t.started <- true;
  List.iter (fun n -> advertise_batch t n [ t.id ]) t.up

let on_message t ~from msg =
  if List.mem from t.up then begin
    let s = session t from in
    match msg with
    | Update { dst; path } ->
      let previous = Route_table.Vec.get s.rib dst in
      (* Loop detection: a path through ourselves is unusable; the paper
         treats it as an implicit withdrawal. *)
      if List.mem t.id path then begin
        set_rib s dst [];
        (match t.cfg.rfd with
        | Some c when previous <> [] ->
          rfd_penalize t ~neighbor:from ~dst c.withdrawal_penalty
        | Some _ | None -> ())
      end
      else begin
        set_rib s dst path;
        match t.cfg.rfd with
        | Some c when previous <> [] && previous <> path ->
          rfd_penalize t ~neighbor:from ~dst c.update_penalty
        | Some _ | None -> ()
      end;
      select_and_propagate t ~from [ dst ]
    | Withdraw { dsts } ->
      let withdraw_one dst =
        let existed = Route_table.Vec.get s.rib dst <> [] in
        set_rib s dst [];
        match t.cfg.rfd with
        | Some c when existed ->
          rfd_penalize t ~neighbor:from ~dst c.withdrawal_penalty
        | Some _ | None -> ()
      in
      List.iter withdraw_one dsts;
      select_and_propagate t ~from dsts
  end

let on_link_down t ~neighbor =
  t.up <- List.filter (fun n -> n <> neighbor) t.up;
  (* The session is gone: discard its Adj-RIB-in and rate-limiter state. *)
  let affected =
    match Route_table.Vec.get t.sessions neighbor with
    | None -> []
    | Some s ->
      Route_table.Vec.set t.sessions neighbor None;
      let dsts = ref [] in
      for d = Route_table.Vec.length s.rib - 1 downto 0 do
        if Route_table.Vec.get s.rib d <> [] then dsts := d :: !dsts
      done;
      !dsts
  in
  select_and_propagate t ~from:rescan affected

(* Destinations with a selected route, ascending, with [t.id] merged in
   when [self]. *)
let destinations t ~self =
  let dsts = ref [] in
  for d = max t.id (Route_table.Vec.length t.best - 1) downto 0 do
    if (self && d = t.id) || has_route t d then dsts := d :: !dsts
  done;
  !dsts

let on_link_up t ~neighbor =
  if not (List.mem neighbor t.up) then begin
    t.up <- List.sort compare (neighbor :: t.up);
    (* Session (re)establishment: the initial table exchange is not subject
       to the MRAI timer. *)
    List.iter (send_update_now t neighbor) (t.id :: destinations t ~self:false);
    let s = session t neighbor in
    match t.cfg.mrai_scope with
    | Per_neighbor -> if not s.closed then close_gate t neighbor s
    | Per_destination ->
      if not (Route_table.Bit_vec.get s.pd_closed t.id) then
        close_dst_gate t neighbor s t.id
  end

let next_hop t ~dst =
  if dst = t.id then None else Route_table.next_hop t.fib dst

let metric t ~dst =
  if dst = t.id then Some 0
  else
    let m = Route_table.metric t.fib dst in
    if m < 0 then None else Some m

let known_destinations t = destinations t ~self:true
