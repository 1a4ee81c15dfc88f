(** The global version clock shared by all STM instances (TL2's GV1).

    A single process-wide clock keeps transactions from different STM
    implementations in one mutual order, which the cross-STM tests rely
    on.  A writer obtains its write version with one [fetch_and_add]
    ({!tick}), so write versions are unique.

    Invariant: every version installed in a lock is at most {!now}.
    Versions are installed at only two sites, and both take theirs from
    {!tick}: the commit install ([Rwsets.Wset.install_and_unlock], with
    the frame's write version) and the recovery steal's poisoned version
    ({!Recovery}).  WAL replay installs no version; it is followed by
    {!catch_up} past every replayed commit version.  Hence each {!tick}
    is unique, follows real order (a tick that starts after another ends
    returns a larger value), and lies strictly above any version that a
    committer or a thief has observed in a lock — per-location versions
    are strictly increasing without any floor. *)

val now : unit -> int
(** Current clock value; never below a version installed in a lock. *)

val tick : unit -> int
(** The committing writer's write version: increments the clock and
    returns the new value.  Call with all write locks held. *)

val catch_up : int -> unit
(** Advance the clock to at least [v] (monotone; no-op if already past).
    Called by WAL recovery with the highest replayed commit version, so
    versions minted after a restart stay strictly above everything the
    replay installed — a correctness requirement for the next recovery's
    "newer than the checkpoint" comparison. *)
