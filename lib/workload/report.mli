(** Plain-text table rendering for benchmark output.

    The bench harness prints one table per figure panel, in the shape of
    the paper's plots: rows are thread counts, columns are
    implementations, cells are completion times. *)

type t

val create : title:string -> columns:string list -> t
(** [columns] are the headers after the leading "threads" column. *)

val add_row : t -> label:string -> cells:string list -> unit
(** Raises [Invalid_argument] if the cell count differs from [columns]. *)

val seconds : float -> string
(** Render a duration compactly ("1.23s", "45.6ms", "789us"). *)

val print : Format.formatter -> t -> unit
(** Aligned columns, title first. *)
