(** Linear PPDC topology from Fig. 1 of the paper: a chain of switches
    [s_1 - s_2 - ... - s_m] with hosts hanging off selected switches.

    Fig. 1's instance is [build ~num_switches:5]: hosts [h_1] at [s_1]
    and [h_2] at [s_5]. *)

type t = {
  graph : Graph.t;
  switches : int array;  (** chain order, left to right *)
  hosts : int array;  (** left end first *)
}

val build : num_switches:int -> t
(** [build ~num_switches] is a chain of that many switches with one
    host attached at each end (a single switch carries one host); every
    link has weight 1. Raises [Invalid_argument] if [num_switches < 1]. *)
