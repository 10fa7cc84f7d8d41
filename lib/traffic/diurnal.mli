(** Diurnal traffic-scale model (Eq. 9 of the paper).

    Cloud traffic is cycle-stationary: the paper models an N = 12-hour day
    (6 AM–6 PM) in which rates ramp up linearly to noon and back down,

    {v
      τ_h = 0                       h = 0
      τ_h = 2 (h/N) (1 − τ_min)     h = 1 .. N/2
      τ_h = 2 ((N−h)/N) (1 − τ_min) h = N/2+1 .. N
    v}

    with τ_min = 0.2 (after Eramo et al.). To model the US time-zone
    effect, east-coast flows lead west-coast flows by three hours: a
    west-coast flow at hour [h] is scaled by [τ_{h−3}], with the index
    wrapped modulo the period (Eq. 9 is cycle-stationary), so hours 1–3
    carry the tail of the west curve and both coasts see the same total
    daily volume. Outside [1, N] both coasts are zero — there is no
    day.

    Note: as printed in the paper the peak value is [2·(1/2)·(1−τ_min) =
    0.8], i.e. τ_min caps the peak rather than flooring the valley; we
    implement the formula literally and keep [τ_min] a parameter. *)

type t = { hours : int;  (** N; must be even and positive *) tau_min : float }

val default : t
(** N = 12, τ_min = 0.2. *)

val tau : t -> int -> float
(** [tau m h] is τ_h; zero outside [1, N]. *)

val scale : t -> coast:Flow.coast -> hour:int -> float
(** Traffic scale of a flow at the given hour: [τ_h] for east-coast
    flows, [τ_{h−3 mod N}] for west-coast (the offset wraps around the
    period). Zero for hours outside [1, N] on both coasts, so a
    forecast one epoch past the horizon is the zero vector. *)

val rates_at : t -> flows:Flow.t array -> hour:int -> float array
(** The rate vector [λ] at the given hour:
    [λ_i = base_rate_i · scale coast_i hour]. *)
