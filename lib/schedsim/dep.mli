(** Dependence relation on scheduling steps.

    Dynamic partial-order reduction only has to distinguish executions in
    which {e dependent} steps occur in a different order (Mazurkiewicz trace
    equivalence).  This module defines when two steps commute, computed from
    the access footprints that {!Sched} records for every executed step.

    Two steps are {e independent} (commute) iff no protection element is
    touched by both with at least one side storing.  Reads of the same
    element commute; any write or lock transition on a shared element makes
    the pair dependent.  The global version clock is an ordinary location
    ({!Stm_core.Runtime.clock_pe}), which makes any two clock-ticking
    commits dependent — conservative but sound. *)

type t
(** Footprint of one executed step: the set of locations it touched, each
    tagged with whether it was stored to. *)

val empty : t

val is_empty : t -> bool

val of_accesses : Stm_core.Runtime.access list -> t
(** Build a footprint from a step's recorded accesses.  [Pure] entries
    vanish; [Write]/[Lock] count as stores. *)

val dependent : t -> t -> bool
(** Whether two steps may fail to commute: some common location with a
    store on at least one side. *)

val iter : (int -> stores:bool -> unit) -> t -> unit
(** Each location of the footprint once, in increasing order, with whether
    it was stored to. *)

val dependent_access : Stm_core.Runtime.access -> Stm_core.Runtime.access -> bool
(** Dependence of two single annotations; agrees with {!dependent} on
    singleton footprints. *)

val pp : Format.formatter -> t -> unit
