(** The paper's cost model: Eq. 1 and Eq. 8.

    With placement [p], the total policy-preserving communication cost is

    {v
      C_a(p) = Σ_i λ_i · Σ_{j<n} c(p(j), p(j+1))
             + Σ_i λ_i · ( c(s(v_i), p(1)) + c(p(n), s(v'_i)) )        (Eq. 1)
    v}

    and migrating from [p] to [m] additionally costs
    [C_b(p, m) = μ · Σ_j c(p(j), m(j))], for a total of
    [C_t(p, m) = C_b(p, m) + C_a(m)] (Eq. 8).

    The per-switch attachment sums [A_in(s) = Σ_i λ_i c(s(v_i), s)] and
    [A_out(s) = Σ_i λ_i c(s, s(v'_i))] appear in every placement
    algorithm's inner loop, so they are precomputed once per rate vector
    in an {!attach} value. *)

type attach = {
  a_in : float array;
      (** indexed by node id; [a_in.(s) = Σ_i λ_i · c(s(v_i), s)] *)
  a_out : float array;  (** [a_out.(s) = Σ_i λ_i · c(s, s(v'_i))] *)
  total_rate : float;  (** [Λ = Σ_i λ_i] *)
}

val attach : Problem.t -> rates:float array -> attach
(** O(l · |V_s|). Raises [Invalid_argument] if [rates] has a length other
    than the number of flows or contains a negative or non-finite rate.
    [attach problem ~rates] is {!attach_into} on fresh rows. *)

val attach_into :
  Problem.t -> rates:float array -> a_in:float array -> a_out:float array ->
  attach
(** {!attach} written into the caller's rows, which become the result's
    [a_in] and [a_out]: both are zeroed, then filled, so every entry off
    the candidate switches reads 0.0, as from {!attach}. A caller that
    keeps its attachment across rate changes reuses the rows instead of
    allocating two |V|-float rows per change. Raises [Invalid_argument]
    as {!attach} does, and if a row's length is not the matrix's node
    count. Adds 1 to the [cost.attach] counter when
    {!Ppdc_prelude.Obs} is on, as every {!attach} does. *)

val chain_cost : Problem.t -> Placement.t -> float
(** [Σ_{j<n} c(p(j), p(j+1))] — the chain-internal path cost, rate-free. *)

val comm_cost_with_attach : Problem.t -> attach -> Placement.t -> float
(** [C_a(p)] using precomputed attachments: O(n). *)

val comm_cost : Problem.t -> rates:float array -> Placement.t -> float
(** [C_a(p)] from scratch (Eq. 1): O(l + n). *)

val migration_cost : Problem.t -> mu:float -> src:Placement.t -> dst:Placement.t -> float
(** [C_b(src, dst) = μ · Σ_j c(src.(j), dst.(j))]. Raises
    [Invalid_argument] if the placements have different lengths or
    [mu < 0]. *)

val total_cost :
  Problem.t -> rates:float array -> mu:float -> src:Placement.t -> dst:Placement.t -> float
(** [C_t(src, dst) = C_b(src, dst) + C_a(dst)] (Eq. 8). *)

val moved : src:Placement.t -> dst:Placement.t -> int
(** Number of VNFs whose switch differs between the two placements — the
    migration count reported in Fig. 11(b). *)
