(** Algo. 5 — mPareto, the paper's VNF migration algorithm for TOM.

    Given the current placement [p] and a new rate vector, mPareto

    + computes the placement [p'] that is optimal-ish for the new rates
      (Algo. 3);
    + walks every VNF along its cheapest migration path [p(j) → p'(j)];
    + evaluates the total cost [C_t = C_b + C_a] at each of the
      [h_max] parallel migration frontiers — a scan over the Pareto
      front trading migration traffic [C_b] against communication
      traffic [C_a] (Fig. 6(b)) — and commits the cheapest one.

    Frontier row 0 is "do not migrate", so the result never costs more
    than staying put; the last row is "migrate fully to [p']". Complexity
    O(Algo. 3 + n · D) where D is the network diameter. *)

type point = {
  frontier : int array;
  migration_cost : float;  (** [C_b(p, frontier)] *)
  comm_cost : float;  (** [C_a(frontier)] under the new rates *)
  collides : bool;  (** frontier places two VNFs on one switch *)
}
(** One evaluated parallel frontier — the Pareto-front data of
    Fig. 6(b). *)

type outcome = {
  migration : Placement.t;  (** the chosen [m] *)
  total_cost : float;  (** [C_t(p, m)] *)
  migration_cost : float;  (** [C_b(p, m)] *)
  comm_cost : float;  (** [C_a(m)] *)
  moved : int;  (** VNFs that changed switch *)
  target : Placement.t;  (** the [p'] Algo. 3 produced *)
  points : point list;  (** all parallel frontiers, row 0 first *)
}

val migrate :
  Problem.t ->
  rates:float array ->
  mu:float ->
  current:Placement.t ->
  ?collisions:[ `Skip | `Allow ] ->
  ?pair_limit:int ->
  unit ->
  outcome
(** [migrate problem ~rates ~mu ~current ()] picks the cheapest parallel
    frontier. [collisions] (default [`Skip]) controls whether frontiers
    that co-locate two VNFs may be chosen (they are always *reported* in
    [points]); [pair_limit] is passed to {!Placement_dp}. *)

val migrate_attached :
  Problem.t ->
  Cost.attach ->
  mu:float ->
  current:Placement.t ->
  ?collisions:[ `Skip | `Allow ] ->
  ?pair_limit:int ->
  unit ->
  outcome
(** {!migrate} on attachment sums the caller already computed for this
    problem and rate vector ({!Cost.attach} or {!Cost.attach_into}), so
    every decision made on one rate vector — a session's [place] and
    [migrate], or Algo. 6's incumbent — shares one attachment pass.
    Same answers, bit for bit, and the same errors but the rate check,
    which the attachment made. [migrate problem ~rates …] is
    {!Cost.attach} followed by this scan. *)
