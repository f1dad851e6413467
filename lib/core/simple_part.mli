(** Chapter 3: synthesis for designs with a {e simple} partitioning.

    For a simple partitioning (Definition 3.2) the interchip communication
    problem reduces to pin allocation: Theorem 3.1 proves that any schedule
    whose I/O operations fit the per-chip pin budgets admits a conflict-free
    interchip connection, and its proof is constructive.  Scheduling is
    ordinary list scheduling with a pin-allocation feasibility checker in
    front of every I/O operation (Fig. 3.4); the checker decides an ILP
    (§3.1.1, reduced as in §3.1.2) whose variables say in which control-step
    group each I/O operation's pins can be allocated. *)

open Mcs_cdfg

val is_simple : Cdfg.t -> bool
(** Definition 3.2, quantified over real partitions only (the outside world
    is exempt; see DESIGN.md). *)

val violations : Cdfg.t -> string list
(** Human-readable list of Definition 3.2 violations (empty iff simple). *)

(** The pin-allocation feasibility problem (Definition 3.3). *)
module Pin_ilp : sig
  val model :
    Cdfg.t -> Constraints.t -> rate:int ->
    fixed:(Types.op_id * int) list -> Mcs_ilp.Model.t
  (** The ILP of §3.1.1 with the single-fanout merge of §3.1.2; [fixed]
      pins already-scheduled I/O operations to their control-step groups. *)

  val feasible :
    ?budget:Mcs_resilience.Budget.t ->
    Cdfg.t -> Constraints.t -> rate:int ->
    fixed:(Types.op_id * int) list -> bool
  (** Decides the model with {!Mcs_ilp.Model.solve}, the certified
      float-first branch & bound (the dissertation's §3.3 Gomory
      cutting-plane route, {!Mcs_ilp.Gomory}, runs on the same
      {!Mcs_ilp.Model.to_problem} in the tests).  A solver node
      limit that already found an integer point counts as feasible; a
      genuinely undecided node limit is treated as infeasible (safe for
      the scheduler: the operation is merely postponed).  Exhaustion of an
      explicit [budget] (or the [exhaust-ilp] fault), by contrast, raises
      {!Mcs_resilience.Budget.Out_of_budget} — the schedule attempt is out
      of time and the caller's degradation ladder decides what's next.

      Bases are registered under a rate-independent {!Mcs_ilp.Warm} key
      so neighboring rates chain. *)
end

val hook :
  ?budget:Mcs_resilience.Budget.t ->
  Cdfg.t -> Constraints.t -> rate:int -> Mcs_sched.List_sched.io_hook
(** The safety checker of Fig. 3.4: before an I/O operation is scheduled in
    a control step, verify a completing pin allocation still exists. *)

(** Constructive interchip connection of Theorem 3.1.

    Following the proof, "the connections at the input and output ends of a
    partition can be constructed independently": the connection is a set of
    per-end wire {e bundles}.  A partition's pin usage is the total width of
    its own ends' bundles; a fan of two counterparts is decomposed into the
    A/B/C bundles of Fig. 3.3, wider fans (only the exempt outside world)
    into one shared bus-style bundle per end. *)
module Theorem31 : sig
  type bundle = {
    owner : [ `Out of int | `In of int ];
        (** which partition's output or input end this bundle belongs to *)
    counterparts : int list;  (** partitions on the far side *)
    wires : int;
  }

  val connect : Mcs_sched.Schedule.t -> bundle list

  val check : Mcs_sched.Schedule.t -> bundle list -> (unit, string) result
  (** Replays every control-step group's transfers through the bundles and
      verifies no end is oversubscribed (including the A/B/C inequalities of
      the proof) — the "no communication conflict" claim of the theorem. *)
end

type result = {
  schedule : Mcs_sched.Schedule.t;
  links : Theorem31.bundle list;
  pins_needed : (int * int) list;  (** per partition, pins actually used *)
}

val run :
  Benchmarks.design -> rate:int ->
  (result, string) Stdlib.result
(** Whole Chapter 3 flow on a simple-partitioned design.
    @raise Invalid_argument if the design's partitioning is not simple. *)
