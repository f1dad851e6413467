(** The I/O operations of a design in connection-search order — widest
    first, ties by operation id — as flat arrays indexed by position in
    that order.  The Chapter 4 and Chapter 6 depth-first searches place
    operations in this order and keep their per-node state in terms of
    these indices, interned values and width classes, so each node reads
    arrays instead of rebuilding lists. *)

open Mcs_cdfg

type t = {
  ops : Types.op_id array;  (** operation at each search position *)
  width : int array;
  src : int array;
  dst : int array;
  value : int array;  (** interned value, [0 .. n_values - 1] *)
  n_values : int;
  classes : int array;  (** the distinct widths, widest first *)
  width_class : int array;  (** index of each operation's width in [classes] *)
}

val of_cdfg : Cdfg.t -> t

val length : t -> int

val position : t -> Types.op_id -> int
(** Search position of an I/O operation.  Raises [Not_found] for other
    operations. *)
