(** The eta-sweep experiment: when-to-migrate policies under the
    discrete-event simulator.

    Three tables over one composite day (the diurnal wave as hourly
    rate updates, quarter-hour probe ticks, and a mid-day
    failure/repair episode), all replayed by
    {!Ppdc_sim.Event_engine} with the mPareto policy:

    - the migration-coefficient sweep under a fixed threshold trigger
      — as mu grows, migration traffic falls and communication cost
      rises (the committed trade-off gated by [BENCH_events.json]);
    - the threshold drift-ratio (eta) sweep at fixed mu — lower eta
      reconfigures more eagerly;
    - the trigger-policy comparison (on-event, periodic, threshold,
      hysteresis) at equal migration coefficient — the adaptive
      triggers match periodic cost with fewer reconfigurations. *)

val replay :
  mu:float ->
  trigger:Ppdc_sim.Event_engine.trigger ->
  seed:int ->
  k:int ->
  l:int ->
  n:int ->
  Ppdc_sim.Event_engine.run
(** One trial: the mPareto replay of the composite day on the seeded
    instance {!Runner.fat_tree_problem} builds, deployed
    [Uninformed seed]. [BENCH_events.json] records these runs. *)

val run : Mode.t -> Ppdc_prelude.Table.t list
