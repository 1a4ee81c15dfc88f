(* Dynamic checking of the STM's internal discipline.  See sanitizer.mli
   for the check catalogue and DESIGN.md for the design notes (what is a
   violation vs. what is merely an abort, and why each check cannot
   false-positive on a correct engine).

   All shared state lives behind one mutex: the sanitizer is a debugging
   tool and correctness of its own bookkeeping beats hot-path cost.  The
   per-event counters are atomics so the frequent paths (validated reads,
   peeks) touch the mutex only to record a violation. *)

type kind =
  | Lock_imbalance
  | Version_regress
  | Unsafe_write_race
  | Peek_escape
  | Commit_stale
  | Abort_swallowed
  | Bad_steal

let all_kinds =
  [ Lock_imbalance; Version_regress; Unsafe_write_race; Peek_escape;
    Commit_stale; Abort_swallowed; Bad_steal ]

let kind_index = function
  | Lock_imbalance -> 0
  | Version_regress -> 1
  | Unsafe_write_race -> 2
  | Peek_escape -> 3
  | Commit_stale -> 4
  | Abort_swallowed -> 5
  | Bad_steal -> 6

let kind_name = function
  | Lock_imbalance -> "lock-imbalance"
  | Version_regress -> "version-regress"
  | Unsafe_write_race -> "unsafe-write-race"
  | Peek_escape -> "peek-escape"
  | Commit_stale -> "commit-stale"
  | Abort_swallowed -> "abort-swallowed"
  | Bad_steal -> "bad-steal"

type violation = {
  v_kind : kind;
  v_pe : int;
  v_proc : int;
  v_owner : int;
  v_detail : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "[%s] pe=%d proc=%d owner=%d: %s" (kind_name v.v_kind)
    v.v_pe v.v_proc v.v_owner v.v_detail

type checks = {
  lock_transitions : int;
  reads_validated : int;
  commits_checked : int;
  unsafe_writes_checked : int;
  peeks_checked : int;
  attempts_audited : int;
  zombie_aborts : int;
  steals_checked : int;
}

(* ------------------------------------------------------------------ *)
(* State                                                               *)

let m = Mutex.create ()

let with_m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Full violation records are capped (a broken engine in a tight loop
   would otherwise accumulate without bound); the per-kind counts keep
   counting past the cap. *)
let kept_max = 256

let kind_counts = Array.init (List.length all_kinds) (fun _ -> Atomic.make 0)
let total_violations = Atomic.make 0
let kept : violation list ref = ref []  (* newest first, under [m] *)

(* pe -> lock discipline state.  [holder] is the owner id or -1. *)
type lock_state = { mutable holder : int; mutable last_version : int }

let locks : (int, lock_state) Hashtbl.t = Hashtbl.create 64

(* owner (root tx id) -> logical process, for every live top-level
   transaction attempt. *)
let live : (int, int) Hashtbl.t = Hashtbl.create 16

(* owners that crashed (simulated) while holding locks: legitimate steal
   victims even when their registry slot has not yet gone dead/stale. *)
let crashed : (int, unit) Hashtbl.t = Hashtbl.create 16

let c_lock_transitions = Atomic.make 0
let c_reads_validated = Atomic.make 0
let c_commits_checked = Atomic.make 0
let c_unsafe_writes = Atomic.make 0
let c_peeks = Atomic.make 0
let c_attempts_audited = Atomic.make 0
let c_zombie_aborts = Atomic.make 0
let c_steals = Atomic.make 0

let enabled () = !Runtime.sanitizer

(* Checks are suppressed under the deterministic scheduler: simulated runs
   multiplex logical processes whose interleavings deliberately include
   states (peeks from evaluator closures, mid-schedule kills) that the
   discipline checks would misread as escapes. *)
let active () = !Runtime.sanitizer && not !Runtime.simulated

(* Assumes [m] is held. *)
let record_locked ~kind ~pe ~owner detail =
  Atomic.incr kind_counts.(kind_index kind);
  Atomic.incr total_violations;
  if Atomic.get total_violations <= kept_max then
    kept :=
      { v_kind = kind; v_pe = pe; v_proc = Runtime.current_proc ();
        v_owner = owner; v_detail = detail }
      :: !kept

let record ~kind ~pe ~owner detail =
  with_m (fun () -> record_locked ~kind ~pe ~owner detail)

(* ------------------------------------------------------------------ *)
(* Event handler (lock transitions, unsafe stores, peeks)              *)

(* The handlers below assume [m] is held: [handle_event] takes it around
   each event together with its lock transition. *)

let on_acquire ~pe ~owner ~version =
  Atomic.incr c_lock_transitions;
  match Hashtbl.find_opt locks pe with
  | None -> Hashtbl.add locks pe { holder = owner; last_version = version }
  | Some e ->
    if e.holder >= 0 then
      record_locked ~kind:Lock_imbalance ~pe ~owner
        (Printf.sprintf "acquired by %d while already held by %d" owner
           e.holder)
    else if version < e.last_version then
      record_locked ~kind:Version_regress ~pe ~owner
        (Printf.sprintf
           "acquired at version %d after the lock reached version %d" version
           e.last_version);
    e.holder <- owner;
    if version > e.last_version then e.last_version <- version

let on_release ~pe ~owner ~version =
  Atomic.incr c_lock_transitions;
  match Hashtbl.find_opt locks pe with
  | None ->
    (* Cold start: the lock was acquired before the sanitizer was enabled.
       Seed the table instead of flagging. *)
    Hashtbl.add locks pe
      { holder = -1; last_version = Option.value version ~default:0 }
  | Some e ->
    if e.holder < 0 then
      record_locked ~kind:Lock_imbalance ~pe ~owner
        (Printf.sprintf "released by %d while not held" owner)
    else if e.holder <> owner then
      record_locked ~kind:Lock_imbalance ~pe ~owner
        (Printf.sprintf "released by %d while held by %d" owner e.holder);
    e.holder <- -1;
    (match version with
    | None -> ()  (* restore/abstract release: version unchanged *)
    | Some v ->
      if v <= e.last_version then
        record_locked ~kind:Version_regress ~pe ~owner
          (Printf.sprintf
             "unlocked to version %d, not above the last version %d" v
             e.last_version)
      else e.last_version <- v)

let on_unsafe_write ~pe ~locked_owner =
  Atomic.incr c_unsafe_writes;
  if Hashtbl.length live > 0 then begin
    let sanctioned =
      (* The store is the install phase of a commit: the element's lock is
         held by a transaction live on this very process. *)
      match locked_owner with
      | Some o -> Hashtbl.find_opt live o = Some (Runtime.current_proc ())
      | None -> false
    in
    if not sanctioned then
      record_locked ~kind:Unsafe_write_race ~pe
        ~owner:(Option.value locked_owner ~default:(-1))
        (Printf.sprintf
           "non-transactional store while %d transaction(s) live and the \
            lock is %s"
           (Hashtbl.length live)
           (match locked_owner with
           | None -> "not held"
           | Some o -> Printf.sprintf "held by foreign owner %d" o))
  end

let on_peek ~pe =
  Atomic.incr c_peeks;
  let here = Runtime.current_proc () in
  let foreign =
    Hashtbl.fold (fun _ proc acc -> acc || proc <> here) live false
  in
  if foreign then
    record_locked ~kind:Peek_escape ~pe ~owner:(-1)
      (Printf.sprintf
         "non-transactional read while a transaction is live on another \
          process")

(* A steal is legitimate only against a victim that cannot still be
   running: it crashed (simulated), its registry slot is dead or stale, or
   recovery already doomed it (doom happens strictly before the steal, so
   a stale victim that heartbeats again between the thief's status check
   and this one is still visibly doomed — the check cannot false-positive
   on a correct thief).  The serial token's victim is a domain id, not a
   transaction id; it is recognised by its [clock_pe] event. *)
let on_steal ~pe ~victim ~version =
  Atomic.incr c_steals;
  let lease_ns = Recovery.lease_ns () in
  let victim_gone =
    if pe = Runtime.clock_pe then
      (match Registry.domain_status ~lease_ns ~domain:victim with
      | Registry.Dead | Registry.Stale -> true
      | Registry.Live -> false)
      || Registry.domain_doomed ~domain:victim
    else
      Hashtbl.mem crashed victim
      || (match Registry.owner_status ~lease_ns ~owner:victim with
         | Registry.Dead | Registry.Stale -> true
         | Registry.Live -> false)
      || Registry.owner_doomed ~owner:victim
  in
  if not victim_gone then
    record_locked ~kind:Bad_steal ~pe ~owner:victim
      (Printf.sprintf "lock stolen from owner %d whose registry slot is live"
         victim);
  match Hashtbl.find_opt locks pe with
  | None -> ()
  | Some e ->
    e.holder <- -1;
    (match version with
    | Some v when v > e.last_version -> e.last_version <- v
    | _ -> ())

let handle_locked (e : Runtime.san_event) =
  match e with
  | Runtime.San_acquire { pe; owner; version } -> on_acquire ~pe ~owner ~version
  | Runtime.San_release { pe; owner; version } -> on_release ~pe ~owner ~version
  | Runtime.San_unsafe_write { pe; locked_owner } ->
    on_unsafe_write ~pe ~locked_owner
  | Runtime.San_peek { pe } -> on_peek ~pe
  | Runtime.San_steal { pe; victim; version } -> on_steal ~pe ~victim ~version

(* A release reported after its CAS can reach the table after the next
   acquirer's event, which then reads as an acquisition of a held lock.
   Running the CAS under [m] orders the report before any event the CAS
   enables; a CAS that loses to a steal reports nothing.  Plain events
   come with a transition that always succeeds. *)
let handle_event e cas =
  if not (active ()) then cas ()
  else
    with_m (fun () ->
        let ok = cas () in
        if ok then handle_locked e;
        ok)

(* ------------------------------------------------------------------ *)
(* Engine-facing checks                                                *)

let tx_begin ~owner =
  if active () then
    with_m (fun () -> Hashtbl.replace live owner (Runtime.current_proc ()))

let tx_end ~owner =
  if active () then with_m (fun () -> Hashtbl.remove live owner)

let tx_crashed ~owner =
  if active () then
    with_m (fun () ->
        Hashtbl.remove live owner;
        Hashtbl.replace crashed owner ())

let on_tx_read ~validate =
  if active () then begin
    Atomic.incr c_reads_validated;
    if not (validate ()) then begin
      (* Not a violation: the engine would have caught this at commit (or
         at the next extension).  Strict-opacity mode turns the zombie
         window into an immediate abort, reported at the read that would
         have observed the inconsistent snapshot. *)
      Atomic.incr c_zombie_aborts;
      Control.abort_tx Control.Read_inconsistent
    end
  end

let on_commit ~owner ~wv iter =
  if active () then begin
    Atomic.incr c_commits_checked;
    iter (fun (e : Rwsets.rentry) ->
        let s = Vlock.stamp e.Rwsets.r_lock in
        let seen = Vlock.version_of e.Rwsets.r_seen in
        let now = Vlock.version_of s in
        (* Proven-safe staleness rule: this commit serialises at [wv], so a
           read entry whose lock is free with a version that differs from
           the one read — yet is no newer than [wv] — was overwritten by a
           commit ordered before ours: the engine's validation should have
           caught it.  Foreign-locked entries and versions beyond [wv]
           (post-validation interference, which necessarily obtained a
           newer tick) are indistinguishable from benign races and are
           skipped.

           Under GV5 the bound is strict: a concurrent committer that read
           the same clock value installs at exactly our [wv] (GV5 writers
           share [now + 2] without ticking), and it can do so between our
           validation and this scan — a benign race, not staleness.  Under
           GV1/GV4 equality stays a violation: ticks are unique (GV1), and
           a GV4 adopter's tick necessarily runs after it locked the
           location, which is after our validation passed over the
           unlocked stamp and hence after our own CAS — so interference
           always lands strictly above [wv]. *)
        let within_serialization =
          match !Runtime.clock_policy with
          | Runtime.GV5 -> now < wv
          | Runtime.GV1 | Runtime.GV4 -> now <= wv
        in
        if (not (Vlock.locked s)) && now <> seen && within_serialization then
          record ~kind:Commit_stale ~pe:e.Rwsets.r_pe ~owner
            (Printf.sprintf
               "committing at wv %d with a read of version %d whose \
                location is now at version %d"
               wv seen now))
  end

(* ------------------------------------------------------------------ *)
(* Retry-loop-facing attempt audit                                     *)

let attempt_fence () = Txrec.abort_generation ()

let audit_attempt ~before ~aborted =
  if active () then begin
    Atomic.incr c_attempts_audited;
    let now = Txrec.abort_generation () in
    let expected = before + if aborted then 1 else 0 in
    if now > expected then
      record ~kind:Abort_swallowed ~pe:(-1) ~owner:(-1)
        (Printf.sprintf
           "%d abort(s) raised during the attempt never reached the retry \
            loop"
           (now - expected));
    (* Consume this attempt's aborts so enclosing retry loops (a nested
       [atomic] of another engine) audit only their own. *)
    Txrec.set_abort_generation before
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle and reporting                                             *)

let reset () =
  with_m (fun () ->
      Hashtbl.reset locks;
      Hashtbl.reset live;
      Hashtbl.reset crashed;
      kept := [];
      Atomic.set total_violations 0;
      List.iter (fun k -> Atomic.set kind_counts.(kind_index k) 0) all_kinds;
      List.iter (fun c -> Atomic.set c 0)
        [ c_lock_transitions; c_reads_validated; c_commits_checked;
          c_unsafe_writes; c_peeks; c_attempts_audited; c_zombie_aborts;
          c_steals ])

let enable () =
  Runtime.sanitizer_hook := handle_event;
  Control.abort_notifier := Txrec.bump_abort_generation;
  Runtime.sanitizer := true

let disable () = Runtime.sanitizer := false

let violations () = with_m (fun () -> List.rev !kept)
let violation_count () = Atomic.get total_violations

let counts_by_kind () =
  List.map (fun k -> (k, Atomic.get kind_counts.(kind_index k))) all_kinds

let checks () =
  { lock_transitions = Atomic.get c_lock_transitions;
    reads_validated = Atomic.get c_reads_validated;
    commits_checked = Atomic.get c_commits_checked;
    unsafe_writes_checked = Atomic.get c_unsafe_writes;
    peeks_checked = Atomic.get c_peeks;
    attempts_audited = Atomic.get c_attempts_audited;
    zombie_aborts = Atomic.get c_zombie_aborts;
    steals_checked = Atomic.get c_steals }
