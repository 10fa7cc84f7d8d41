(** Descriptive statistics for experiment reporting.

    Each data point in the paper's plots is "an average of 20 runs with a
    95% confidence interval"; [summary] computes exactly that. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  ci95 : float;  (** half-width of the 95% confidence interval *)
  min : float;
  max : float;
}

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val variance : float array -> float
(** Unbiased sample variance; 0 when fewer than two points. *)

val summary : float array -> summary
(** Full summary. The confidence interval uses Student's t critical value
    for small n (two-sided 95%), converging to 1.96 for large n. Raises
    [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [0,1]: linear-interpolation percentile
    of the data, ordered by [Float.compare]. Raises [Invalid_argument]
    on an empty array, [q] outside [0,1], or a NaN data point (NaN has
    no rank; polymorphic [compare] used to place it arbitrarily and
    poison the interpolation). The input array is not modified. *)
