(** Transactional variables.

    A ['a t] is a mutable cell guarded by a versioned lock.  All STM
    implementations in this repository share this representation; they differ
    only in how they validate reads and when they acquire the lock.  The cell
    id doubles as the protection-element identifier of the paper's model
    (Section II.A). *)

type 'a t = private {
  id : int;                 (** unique id; also the protection-element id *)
  lock : Vlock.t;
  mutable content : 'a;     (** written only while [lock] is held *)
}

val make : 'a -> 'a t
(** A fresh transactional variable holding the given initial value. *)

val id : 'a t -> int

val read_stamp : 'a t -> int
(** First half of the double-stamp read: the current stamp of [tv], which
    is unlocked.  Raises {!Control.Abort_tx}[ Read_locked] if the lock is
    held (after one orphan-steal retry under recovery).  Follow it with
    {!read_value}. *)

val read_value : 'a t -> stamp:int -> 'a
(** Second half: the content of [tv], provided its stamp is still [stamp]
    (from {!read_stamp}) after the load; raises
    {!Control.Abort_tx}[ Read_inconsistent] otherwise.  The pair allocates
    nothing. *)

val read_consistent : 'a t -> int * 'a
(** [read_consistent tv] returns [(stamp, value)] such that [value] was the
    content of [tv] while its stamp was [stamp] and the lock was free: the
    two halves above, returned as a pair (TL2-style double-stamp read). *)

val peek : 'a t -> 'a
(** Unvalidated read of the current content, for sequential baselines,
    statistics and debugging only. *)

val unsafe_write : 'a t -> 'a -> unit
(** Direct store, bypassing the STM.  Only valid when the caller owns the
    lock or when no concurrent transactions exist (e.g. initialisation). *)
