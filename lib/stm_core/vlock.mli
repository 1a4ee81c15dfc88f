(** Versioned write-locks.

    Every transactional variable carries one versioned lock.  The lock packs
    a version number and a locked bit into a single [int Atomic.t] so that a
    reader can obtain both with one atomic load.  The identity of the owner
    and the pre-lock stamp are kept in plain fields that are only written
    between a successful [try_lock] and the matching unlock; the CAS on the
    stamp provides the happens-before edge that makes those plain accesses
    safe. *)

type t

val create : ?pe:int -> unit -> t
(** A fresh unlocked lock at version 0.  [pe] is the protection-element id
    under which the lock reports its accesses to the deterministic
    scheduler's trace (defaults to an anonymous id); for a tvar's lock it is
    the tvar id. *)

val pe : t -> int
(** Protection-element id passed at creation. *)

val stamp : t -> int
(** Atomic load of the current stamp (version and locked bit together). *)

val locked : int -> bool
(** Whether a stamp obtained from {!stamp} has the locked bit set. *)

val version_of : int -> int
(** Version number carried by a stamp (valid for locked stamps too: a locked
    stamp still exposes the version that was current when the lock was
    taken). *)

val try_lock : t -> owner:int -> bool
(** Attempt to acquire the lock for transaction [owner].  Returns [false]
    without blocking if the lock is already held.  While recovery is
    enabled, acquisition first claims the holder-identity cell read by
    {!holder} and only then CASes the stamp, so a thief can never pair a
    locked stamp with a stale previous owner. *)

val try_lock_save : t -> owner:int -> int
(** Like {!try_lock}, but returns the pre-lock stamp observed by the
    winning CAS, or -1 on failure.  Callers running with recovery enabled
    must record this stamp per write-set entry and release through
    {!unlock_restore_from}/{!unlock_to_from}: after a steal, the lock's
    shared saved-stamp field may already belong to a thief's next locker. *)

val owner : t -> int
(** Owner recorded by the last successful [try_lock].  {b Contract}: the
    plain field is only meaningful against a locked stamp the caller has
    already observed, and even then it may be stale — the field is written
    {e after} the winning stamp CAS, so a freshly locked stamp can still
    expose the {e previous} owner, and another transaction can release and
    re-acquire the lock between the stamp load and this read.  The only
    safe use is self-ownership checks, where staleness is impossible
    because only the caller writes its own id.  Recovery must use
    {!holder}. *)

val holder : t -> int
(** The recovery claim cell: the identity CASed in {e before} the stamp
    CAS by recovery-mode acquisitions and cleared only {e after} the
    stamp transition of a release (or by the thief after a steal).
    Invariant: a locked stamp together with [holder >= 0] always names the
    actual current holder — never a stale predecessor — which is what
    makes doom-then-steal target the right victim.  [-1] means no
    recovery-mode holder: unlocked, a release/steal handover in flight, or
    a lock acquired while recovery was disabled (such locks are not
    reclaimable). *)

val locked_by : t -> owner:int -> bool
(** [locked_by l ~owner] is true iff [l] is currently locked and the recorded
    owner is [owner].  Used for read-own-lock checks. *)

val unlock_restore : t -> unit
(** Release the lock, restoring the stamp saved by [try_lock] (used when a
    transaction aborts after eagerly locking). *)

val unlock_to : t -> version:int -> unit
(** Release the lock, publishing [version] as the new version (used at
    commit after installing a new value). *)

val unlock_restore_from : t -> saved:int -> bool
(** CAS-based {!unlock_restore} from a stamp recorded by
    {!try_lock_save}: releases only if the lock still carries the locked
    image of [saved] — i.e. it was not stolen.  [false] means a thief took
    the lock; the caller must treat it as no longer its own. *)

val unlock_to_from : t -> saved:int -> version:int -> bool
(** CAS-based {!unlock_to} from a stamp recorded by {!try_lock_save};
    same steal semantics as {!unlock_restore_from}. *)

val steal : t -> observed:int -> victim:int -> version:int -> int option
(** Recovery-only: transition the lock from the locked stamp [observed]
    to unlocked poisoned [version] (which must be strictly greater than
    [version_of observed]), displacing the claim cell.  [None] if the
    stamp moved since it was observed (the steal failed harmlessly);
    [Some displaced] on success, where [displaced] identifies whoever
    actually held the lock at the instant it was taken — normally
    [victim], but a different id when the lock cycled through a
    release/re-acquire back to the same stamp, in which case the caller
    must doom [displaced] as well.  Only {!Recovery.try_steal_vlock} may
    call this, with [victim] read from {!holder} and the victim's registry
    slot already doomed. *)
