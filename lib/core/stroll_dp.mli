(** Algo. 2 — the DP stroll heuristic for TOP-1 (and the engine inside
    Algo. 3).

    Finding a cheapest s–t stroll that visits [n] *distinct* switches is
    NP-hard (the n-stroll problem), but a cheapest s–t stroll with a fixed
    *edge count* is polynomial. Algo. 2 therefore works on the metric
    completion of the PPDC (edge [(u,v)] costs [c(u,v)]) and searches for
    the cheapest stroll with [e = n+1] edges, escalating [e] until the
    stroll visits [n] distinct switches. Immediate backtracking
    ([... → u → x → u → ...]) is forbidden (line 6 of Algo. 2), which
    empirically keeps the walks from looping instead of exploring.

    The DP table for a fixed destination [t] simultaneously answers
    queries from *every* source, which Algo. 3 exploits: one [prepare]
    per candidate egress switch serves all candidate ingress switches.
    [prepare] is O(|V''|²) per edge level; a query is O(e).

    The tables themselves are not cached here. {!Placement_dp} keeps
    their query answers per cost matrix, so it prepares each egress's
    table once per fabric (per candidate set, [n] and edge budget), not
    once per solve; Algo. 5 (mPareto) and the event simulator reuse
    them through it. *)

type table

type workspace
(** Reusable buffer bundle backing a {!table}. Preparing into the same
    workspace again rebuilds the table in place (buffers only grow), so
    per-destination fan-outs — one table per candidate egress in
    Algo. 3 — allocate nothing after the first round. A workspace must
    not be shared between concurrent preparations; give each domain its
    own (e.g. via [Domain.DLS]). *)

val workspace : unit -> workspace
(** A fresh, empty workspace. *)

val prepare_in :
  workspace ->
  cm:Ppdc_topology.Cost_matrix.t ->
  dst:int ->
  candidates:int array ->
  extras:int array ->
  table
(** Like {!prepare}, but (re)builds the table inside [workspace] instead
    of allocating. The returned table aliases the workspace: it is valid
    until the next [prepare_in] on the same workspace. *)

val prepare :
  cm:Ppdc_topology.Cost_matrix.t ->
  dst:int ->
  candidates:int array ->
  extras:int array ->
  table
(** [prepare ~cm ~dst ~candidates ~extras] builds the lazily-extended DP
    table on the metric completion over [candidates ∪ extras ∪ {dst}].
    [candidates] are the switches that count towards the "n distinct"
    requirement (and may be transited); [extras] are transit-only nodes,
    e.g. a source host. Raises [Invalid_argument] if [candidates] is
    empty or contains duplicates. *)

type result = {
  cost : float;  (** metric length of the stroll found *)
  switches : int array;
      (** the first [n] distinct counting switches, in visit order — the
          VNF locations [f_1 .. f_n] *)
  walk : int array;  (** the full stroll node sequence, [src] to [dst] *)
  edges : int;  (** number of edges of the stroll *)
}

val query : table -> src:int -> n:int -> ?max_edges:int -> unit -> result option
(** Cheapest stroll from [src] (which must be a node of the table) to the
    table's destination visiting at least [n] distinct counting switches,
    where the physical [src]/[dst] nodes do not count. [None] if no such
    stroll is found within [max_edges] (default [2·n + 8]) edges.

    [n = 0] asks for the direct hop (or the empty stroll when
    [src = dst]). The edge budget still applies: [max_edges] defaults to
    [1] and the result is [None] when the required stroll does not fit
    (e.g. [~max_edges:0] with [src <> dst]). *)

val nearest_neighbour :
  cm:Ppdc_topology.Cost_matrix.t ->
  src:int ->
  dst:int ->
  n:int ->
  eligible:int array ->
  result
(** Greedy stroll: hop to the closest unused eligible switch until [n]
    are collected, then to [dst]. Always succeeds when [eligible] holds
    at least [n] distinct switches, and raises [Invalid_argument]
    otherwise (rather than failing mid-walk on an undersized topology);
    used as the safety net when the DP's edge budget runs out, and as a
    comparison point in tests. *)

val solve :
  cm:Ppdc_topology.Cost_matrix.t ->
  src:int ->
  dst:int ->
  n:int ->
  ?max_edges:int ->
  unit ->
  result
(** One-shot TOP-1 entry point: prepares a table over all switches of
    the graph and queries it. If the DP fails to expose [n] distinct
    switches within the edge budget, falls back to a nearest-neighbour
    stroll so a valid result is always produced. Raises
    [Invalid_argument] if fewer than [n] counting switches exist. *)
