(** BGP-style path-vector routing, as modeled in the paper.

    Each router is its own AS. Characteristics:
    - Adj-RIB-in: the latest path heard from every neighbor is cached, so
      switch-over to an alternate path is instant (like {!Dbf}).
    - Updates are incremental and reliable (TCP-like): routes are advertised
      once, then only on change.
    - Explicit withdrawals propagate immediately, bypassing the rate limiter.
    - Loop detection: a received path containing the receiver is treated as a
      withdrawal (the paper's "similar to split horizon with poison reverse").
    - MRAI: after an update is sent to a neighbor, further advertisements to
      that neighbor wait for the Minimum Route Advertisement Interval timer.
      The paper stresses that the timer is kept {e per neighbor} in vendor
      implementations (so one early update can delay updates about other
      destinations) and speculates results would differ with a
      per-(neighbor, destination) timer; both granularities are implemented
      ({!mrai_scope}).

    [default_config] is standard BGP (MRAI mean 30 s). [fast_config] is the
    paper's specially parameterized variant (MRAI mean 3 s), comparable to the
    RIP/DBF 1-5 s triggered-update damping. *)

type mrai_scope = Per_neighbor | Per_destination

(** Route flap damping (RFC 2439 style), the mechanism whose interaction with
    rich connectivity the paper's introduction flags (its references [4] and
    [15]): each (neighbor, destination) accumulates an exponentially decaying
    penalty on withdrawals and path changes; past [cutoff] the entry is
    suppressed until the penalty decays to [reuse]. *)
type rfd_config = {
  half_life : float;  (** penalty decay half-life, seconds *)
  cutoff : float;  (** suppress when the penalty reaches this *)
  reuse : float;  (** release when the penalty decays below this *)
  max_suppress : float;  (** never suppress longer than this *)
  withdrawal_penalty : float;
  update_penalty : float;  (** charge for a changed re-advertisement *)
}

val default_rfd : rfd_config
(** Cisco-like shape scaled to simulation time: half-life 60 s, cutoff 2.0,
    reuse 0.75, max suppress 240 s, penalties 1.0 / 0.5. *)

type config = {
  mrai_mean : float;
  mrai_jitter : float;  (** timer drawn uniformly in [mean * (1 +- jitter)] *)
  mrai_scope : mrai_scope;
  rfd : rfd_config option;  (** [None]: no route flap damping *)
  header_bytes : int;
  dst_bytes : int;
  hop_bytes : int;
}

type message =
  | Update of { dst : Netsim.Types.node_id; path : Netsim.Types.node_id list }
      (** [path] is the sender's full path: sender first, [dst] last *)
  | Withdraw of { dsts : Netsim.Types.node_id list }

include
  Proto_intf.PROTOCOL
    with type config := config
     and type message := message
(** [default_config] (from {!Proto_intf.PROTOCOL}) is standard BGP. *)

val fast_config : config
(** The paper's BGP-3: MRAI mean 3 s, everything else as [default_config]. *)

val best_path : t -> dst:Netsim.Types.node_id -> Netsim.Types.node_id list option
(** The currently selected path from this router to [dst] (self first, [dst]
    last); [None] when unreachable. *)

val rib_in_path :
  t ->
  neighbor:Netsim.Types.node_id ->
  dst:Netsim.Types.node_id ->
  Netsim.Types.node_id list option
(** The cached path heard from [neighbor] for [dst]; exposed for tests. *)

val rfd_suppressed :
  t -> neighbor:Netsim.Types.node_id -> dst:Netsim.Types.node_id -> bool
(** Whether route flap damping currently suppresses the rib entry heard from
    [neighbor] for [dst]; always false without an {!rfd_config}. *)

val mrai_pending : t -> neighbor:Netsim.Types.node_id -> Netsim.Types.node_id list
(** Destinations queued behind a closed MRAI gate toward [neighbor],
    ascending; exposed for tests. *)

val mrai_closed :
  t -> neighbor:Netsim.Types.node_id -> dst:Netsim.Types.node_id -> bool
(** Whether the MRAI gate that an advertisement of [dst] to [neighbor] would
    wait behind is closed: the neighbor's one gate under [Per_neighbor], the
    (neighbor, [dst]) gate under [Per_destination]. Exposed for tests. *)
