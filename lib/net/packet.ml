type t = {
  id : int;
  src : Types.node_id;
  dst : Types.node_id;
  size_bits : int;
  sent_at : float;
  mutable ttl : int;
  mutable hops : int;
  mutable far : Types.node_id list;
  mutable revisited : bool;
  (* Inline bitset over node ids 0..125 (two 63-bit words): the loop check
     below is one bit test, and a hop below id 126 allocates nothing. Ids
     >= 126 fall back to the [far] list, so the check stays exact for any
     topology. *)
  mutable vmask0 : int;
  mutable vmask1 : int;
}

let create ~id ~src ~dst ~size_bits ~ttl ~sent_at =
  {
    id;
    src;
    dst;
    size_bits;
    sent_at;
    ttl;
    hops = 0;
    far = [];
    revisited = false;
    vmask0 = 0;
    vmask1 = 0;
  }

(* The loop check rides along with the visit — one bit test per hop instead
   of a quadratic rescan of the whole journey at delivery time. *)
let visit p n =
  p.hops <- p.hops + 1;
  if n < 63 then begin
    let b = 1 lsl n in
    if p.vmask0 land b <> 0 then p.revisited <- true
    else p.vmask0 <- p.vmask0 lor b
  end
  else if n < 126 then begin
    let b = 1 lsl (n - 63) in
    if p.vmask1 land b <> 0 then p.revisited <- true
    else p.vmask1 <- p.vmask1 lor b
  end
  else if List.mem n p.far then p.revisited <- true
  else p.far <- n :: p.far

(* Non-mutating membership test over the same bitset/list hybrid as [visit];
   fast reroute uses it to refuse a backup hop that would close a loop. *)
let visited p n =
  if n < 63 then p.vmask0 land (1 lsl n) <> 0
  else if n < 126 then p.vmask1 land (1 lsl (n - 63)) <> 0
  else List.mem n p.far

let hop_count p = max 0 (p.hops - 1)

let looped p = p.revisited

let pp ppf p =
  Fmt.pf ppf "packet#%d %d->%d ttl=%d hops=%d" p.id p.src p.dst p.ttl
    (hop_count p)
