(** Minimal JSON tree: parser, compact one-line printer, helpers.

    Enough JSON for the repo's own wire formats — the [ppdc.metrics/1]
    NDJSON written by {!Obs} and the [ppdc.rpc/1] protocol spoken by
    [Ppdc_server] — without pulling a JSON dependency into the prelude.
    Objects, arrays, strings, numbers, booleans and null are supported;
    every number is an OCaml [float] (ints round-trip exactly up to
    2{^53}).

    Printing is the inverse of parsing for finite data: for any [t]
    whose [Num]s are finite, [parse (to_string t)] is {!equal} to [t].
    Non-finite numbers print as [null] (JSON has no NaN/infinity), so
    they do not round-trip — by design, matching the metrics schema. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> t
(** Raises [Failure] on malformed input or trailing garbage. *)

val to_string : t -> string
(** Compact rendering, no whitespace, no trailing newline. The result
    never contains a raw newline (strings are escaped), so it is safe as
    one NDJSON line. *)

val member : string -> t -> t option
(** Field lookup on [Obj] (first match); [None] otherwise. *)

val equal : t -> t -> bool
(** Structural equality; [Num]s compare with [Float.compare] (so equal
    NaNs are equal and [0. <> -0.]), object fields must match in order. *)

val float_repr : float -> string
(** Shortest decimal representation that round-trips through
    [float_of_string]; ["null"] for non-finite values. Byte-identical
    to [Printf.sprintf "%.12g" x] when that round-trips, else to
    [Printf.sprintf "%.17g" x]: an integer below 10{^12} other than
    -0.0 prints through [string_of_int], and every other number calls
    the primitive [Printf] reaches for [%g], without [Printf]'s format
    interpretation. *)
