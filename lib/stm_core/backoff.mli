(** Randomised exponential backoff, the retry loop's contention policy.

    Each transaction that aborts carries a backoff state; after an abort
    the transaction waits for a random number of relaxation steps drawn
    from an exponentially growing window before retrying.  The window
    starts at 16 steps and doubles up to {!max_window}.  Under the
    deterministic scheduler the wait degenerates to a scheduling point so
    that cooperative processes cannot spin forever. *)

type t

val create : ?seed:int -> unit -> t

val reset : t -> unit
(** Restore the initial window. *)

val once : t -> unit
(** Wait once and widen the window. *)

val window : t -> int
(** Current window size, for tests and diagnostics.  Starts at 16,
    doubles on every {!once} and never exceeds {!max_window}. *)

val max_window : int
(** Upper bound on the window (2{^14} relaxation steps). *)
