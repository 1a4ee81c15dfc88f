(** The transaction frame every engine runs in.  An engine supplies its
    policy as a functor argument ({!Frame_intf}), never as per-transaction
    closures; the frame owns the per-instance "current transaction" slot,
    the top-level attempt and, for tvar engines, the per-domain scratch
    sets, the {!Tvar} re-exports and the write-back commit.

    Unwinding contract of [run_toplevel]: any exception leaving the body or
    the commit runs the engine's [release] (locks released, undo applied)
    and records the open transactions as aborted; {!Control.Crashed}
    instead runs [forget], leaving held locks for {!Recovery} to reclaim,
    and marks the {!Registry} slot dead.  See DESIGN.md, "Transaction
    frame". *)

open Frame_intf

module Make (E : ENGINE) : S with type ctx := E.ctx

(** The frame of a tvar engine: {!Make} with the write-back commit, which
    runs in this order — schedule point and serial gate; poison check and
    [Wset.lock_all]; [Clock.tick ~floor:max_version]; the engine's
    [validate], then {!Sanitizer.on_commit}; poison check under the locks
    and [Wset.install_and_unlock]; {!Durable.stage}.  A commit with an empty
    write set only passes the gate and runs [validate_read_only]. *)
module Make_tvar (E : TVAR_ENGINE) : sig
  include S with type ctx := E.ctx

  type 'a tvar = 'a Tvar.t

  val tvar : 'a -> 'a tvar
  val peek : 'a tvar -> 'a
  val unsafe_write : 'a tvar -> 'a -> unit
  val tvar_id : 'a tvar -> int

  val extend : E.ctx -> unit
  (** Interval extension: move [rv] to the current clock if the full
      [validate] passes, abort with [Read_too_new] otherwise. *)

  val check_read : E.ctx -> unit
  (** The sanitizer's strict-opacity check of a tracked read, over
      [validate_new]; call only while {!Runtime.sanitizer} is set. *)
end
