(** Plain-text table rendering for experiment output.

    The benchmark harness prints one table per paper figure/table; this
    module renders them with aligned columns and can also emit CSV so the
    series can be re-plotted externally. *)

type t

val create : title:string -> columns:string list -> t
(** A table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] if the number of cells differs
    from the number of columns. *)

val title : t -> string

val to_string : t -> string
(** Aligned, boxed plain-text rendering (title, header rule, rows). *)

val to_csv : t -> string
(** Comma-separated rendering, header first. Cells containing commas or
    quotes are quoted per RFC 4180. *)

val print : t -> unit
(** [to_string] to stdout followed by a blank line. *)
