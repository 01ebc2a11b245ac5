(* Whether a topo cell poses the paper's scenario. A topo cell sends one
   flow from node 0 to a node far from it and fails one link of the flow's
   path. The paper measures delivery while routing re-converges onto
   another path, so the destination must stay reachable after that
   failure. Where a bridge separates the two endpoints, the failure may cut
   the flow off for good: every protocol then drops the flow, and a
   path-vector protocol keeps exploring paths to the lost destinations past
   the cell's measurement window. *)

module T = Netsim.Topology

let ecc dist = Array.fold_left (fun m d -> if d < max_int && d > m then d else m) 0 dist

(* The flow's destination. Mirrors the endpoint choice of [topo_cell] in
   lib/campaign/sections.ml, which is private: keep the two in step. *)
let topo_dst g ~axis ~seed =
  let dist0 = T.bfs_distances g 0 in
  let want = min (ecc dist0) 10 in
  let cands = ref [] in
  Array.iteri (fun v d -> if d = want && v <> 0 then cands := v :: !cands) dist0;
  let rng = Dessim.Rng.create (seed + (axis * 104_729)) in
  match !cands with [] -> T.node_count g - 1 | l -> Dessim.Rng.pick rng l

(* Whether [dst] stays reachable from [src] whichever single link fails.
   A link whose loss separates them lies on every path between them, so
   the links of one shortest path are the only ones to try. *)
let survives_any_failure g ~src ~dst =
  let rec links = function a :: (b :: _ as rest) -> (a, b) :: links rest | _ -> [] in
  match T.shortest_path g src dst with
  | None -> false
  | Some path ->
    List.for_all
      (fun (a, b) -> (T.bfs_distances (T.remove_edge g a b) src).(dst) < max_int)
      (links path)
