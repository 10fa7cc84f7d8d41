(** Seeded synthetic workload generator.

    Reproduces the experiment setup of Section VI:

    - traffic rates follow the flow characteristics reported for Facebook
      data centers: 25 % light flows in [0, 3000), 70 % medium in
      [3000, 7000], 5 % heavy in (7000, 10000];
    - 80 % of VM pairs are placed under the same edge switch (rack
      locality), the rest on uniformly random distinct racks;
    - half of the flows are "east coast", half "west coast" for the
      diurnal time-zone offset.

    All sampling is driven by an explicit {!Ppdc_prelude.Rng.t}, so every
    workload is reproducible from its seed. *)

type rate_mix = {
  light_share : float;
  light_range : float * float;
  medium_share : float;
  medium_range : float * float;
  heavy_range : float * float;
}

val facebook_mix : rate_mix
(** The 25/70/5 mix over [0, 10000] described above. *)

val sample_rate : Ppdc_prelude.Rng.t -> rate_mix -> float
(** One rate draw from the mix. *)

val generate_on_fat_tree :
  rng:Ppdc_prelude.Rng.t ->
  l:int ->
  Ppdc_topology.Fat_tree.t ->
  Flow.t array
(** [generate_on_fat_tree ~rng ~l ft] draws [l] flows on the fat-tree's
    hosts with 80 % rack locality and {!facebook_mix} rates. Every rack
    is equally likely as a source; the other 20 % of destinations are
    uniform over the remaining racks. A flow's coast follows its source
    pod — pods in the first half of the fabric are "east", the rest
    "west" — so the diurnal time-zone offset physically moves the
    traffic hotspot across the data center over the day, as the paper's
    model intends (roughly half the flows are on each coast).

    Raises [Invalid_argument] if [l < 0]. *)

val generate_on_hosts :
  rng:Ppdc_prelude.Rng.t ->
  l:int ->
  hosts:int array ->
  unit ->
  Flow.t array
(** Generator for arbitrary topologies: both endpoints uniform over
    [hosts] (they may coincide — VMs of a pair can share a host, as in
    Fig. 3), rates from {!facebook_mix}. Raises [Invalid_argument] if
    [hosts] is empty or [l < 0]. *)

val redraw_rates : rng:Ppdc_prelude.Rng.t -> Flow.t array -> float array
(** Fresh independent rate vector for the same flows — the "traffic
    changed" event that motivates TOM in the single-step experiments. *)
