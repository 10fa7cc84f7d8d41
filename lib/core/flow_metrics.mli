(** Per-flow end-to-end metrics under a placement.

    [C_a] aggregates everything into one number; operators also care
    about the distribution: how long is each flow's policy-preserving
    route, who suffers the worst detour, and how does that compare to
    the direct (chain-free) path? This module reports per-flow route
    delays and the stretch each flow pays for policy preservation. *)

type per_flow = {
  flow : int;  (** flow id *)
  route_delay : float;
      (** [c(src, p(1)) + chain + c(p(n), dst)] — the policy route *)
  direct_delay : float;  (** [c(src, dst)] — the chain-free path *)
  stretch : float;
      (** [route / max(direct, min positive)]; colocated VM pairs
          (direct = 0) report the route against the cheapest non-zero
          direct delay of the instance so the value stays finite *)
}

type t = {
  per_flow : per_flow array;  (** indexed by flow id *)
  mean_delay : float;
  p95_delay : float;
  max_delay : float;
  mean_stretch : float;
}

val compute : Problem.t -> Placement.t -> t
(** Rate-independent route metrics (delay is topology-weighted length;
    rates only weight the aggregate cost, not a single flow's delay). *)
