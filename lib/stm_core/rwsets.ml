[@@@txlint.allow "obj-magic"
    "the wset existential (W) erases entry element types; every cast \
     re-attaches a type witnessed by the entry's own tvar"]

type rentry = {
  r_lock : Vlock.t;
  r_seen : int;
  r_pe : int;
}

let dummy_rentry = { r_lock = Vlock.create (); r_seen = 0; r_pe = -1 }

let rentry_valid ~owner (e : rentry) =
  let s = Vlock.stamp e.r_lock in
  if s = e.r_seen then true
  else
    (* The stamp changed; still fine if it is our own write lock over the
       version we observed (stamp = seen lor 1 set by our try_lock). *)
    Vlock.locked s
    && Vlock.owner e.r_lock = owner
    && Vlock.version_of s = Vlock.version_of e.r_seen

module Rset = struct
  (* [validated_upto] is the incremental-validation watermark: every entry
     below it passed the last successful validation while the owning
     transaction's validity interval [rv] was unchanged.  While [rv] stays
     put, a prefix entry invalidated *after* that validation can only have
     been overwritten by a commit whose version is > rv (version clocks
     are monotonic and tick past the value the prefix was validated
     against), so the values the transaction already returned still form a
     consistent snapshot at [rv] — re-checking the prefix would only
     detect doom earlier, never a safety violation.  Hence [validate_new]
     checks the suffix only; interval extension and commit, where [rv]
     effectively moves, use the full-scan [validate]. *)
  type t = {
    entries : rentry Vec.t;
    mutable validated_upto : int;
    mutable last_scan : int;
  }

  let create () =
    { entries = Vec.create ~dummy:dummy_rentry ();
      validated_upto = 0;
      last_scan = 0 }

  let length t = Vec.length t.entries
  let is_empty t = Vec.is_empty t.entries
  let validated_upto t = t.validated_upto
  let last_scan t = t.last_scan

  let clear t =
    Vec.clear t.entries;
    t.validated_upto <- 0;
    t.last_scan <- 0

  let push t e = Vec.push t.entries e
  let iter f t = Vec.iter f t.entries

  (* Appending leaves [dst]'s watermark alone: the new entries land in the
     unvalidated suffix, exactly where incremental validation looks. *)
  let append_into ~src ~dst = Vec.append_into ~src:src.entries ~dst:dst.entries

  (* Every validation entry point draws from the same injection hook, so
     chaos runs exercise incremental and bounded validation failures too. *)
  let injected_fail () =
    !Runtime.fault_injection && Faults.inject_validation_fail ()

  let validate_from t ~owner ~from =
    let n = Vec.length t.entries in
    t.last_scan <- n - from;
    let rec go i =
      i >= n || (rentry_valid ~owner (Vec.get t.entries i) && go (i + 1))
    in
    let ok = go from in
    if ok then t.validated_upto <- n;
    ok

  let validate t ~owner =
    if injected_fail () then false else validate_from t ~owner ~from:0

  let validate_new t ~owner =
    if injected_fail () then false
    else validate_from t ~owner ~from:t.validated_upto

  let validate_upto t ~owner ~limit =
    if injected_fail () then false
    else begin
      t.last_scan <- Vec.length t.entries;
      let ok =
        Vec.for_all
          (fun e -> Vlock.version_of e.r_seen <= limit && rentry_valid ~owner e)
          t.entries
      in
      if ok then t.validated_upto <- Vec.length t.entries;
      ok
    end

  (* Early release: drop every observation of [pe].  Filtering preserves
     order, so the surviving prefix of the old validated prefix is still a
     prefix — the watermark just shrinks by the number of validated
     entries dropped. *)
  let filter_pe t ~pe =
    let wm = t.validated_upto in
    let dropped_below = ref 0 in
    for i = 0 to wm - 1 do
      if (Vec.get t.entries i).r_pe = pe then incr dropped_below
    done;
    let dropped = Vec.filter_in_place (fun e -> e.r_pe <> pe) t.entries in
    t.validated_upto <- wm - !dropped_below;
    dropped
end

(* A write entry erases the element type of its tvar.  [find] recovers the
   pending value with a cast that is safe because tvar ids are unique: equal
   ids imply the same tvar, hence the same type parameter.  This is the
   standard heterogeneous-write-set technique (cf. kcas); the cast is
   confined to this module. *)
type wentry =
  | W : {
      tv : 'a Tvar.t;
      mutable pending : 'a;
      mutable locked : bool;
      (* Pre-lock stamp observed by our own try_lock, recorded per entry:
         under recovery the lock's shared [saved] field can already belong
         to a thief's next locker by the time we unwind, so CAS-based
         releases must work from this private copy. *)
      mutable w_saved : int;
    }
      -> wentry

let wentry_pe (W e) = e.tv.Tvar.id

let dummy_wentry = W { tv = Tvar.make 0; pending = 0; locked = false; w_saved = 0 }

module Wset = struct
  (* Lookup is O(1) in the common cases: a per-set summary word answers
     the read-of-unwritten-location miss with one load and a branch, small
     sets (below [small_threshold]) fall back to a linear scan of the
     entry vector, and larger sets carry an open-addressing hash table
     mapping tvar id -> entry slot (linear probing, power-of-two capacity,
     load factor <= 1/2).  The table needs no per-entry deletion: entries
     only leave a write set wholesale through [clear], which just marks
     the table inactive for rebuild on the next threshold crossing. *)
  let small_threshold = 8

  type t = {
    entries : wentry Vec.t;
    mutable sorted : bool;
    mutable summary : int;      (* membership bloom word over tvar ids *)
    mutable index : int array;  (* open addressing: entry slot, or -1 *)
    mutable indexed : bool;     (* [index] reflects [entries] *)
  }

  let create () =
    { entries = Vec.create ~dummy:dummy_wentry ();
      sorted = true;
      summary = 0;
      index = [||];
      indexed = false }

  let clear t =
    Vec.clear t.entries;
    t.sorted <- true;
    t.summary <- 0;
    t.indexed <- false

  let is_empty t = Vec.is_empty t.entries
  let size t = Vec.length t.entries

  (* Bit [pe land 63], folded into [0, 62]: [1 lsl 63] is 0 on 63-bit
     ints, and a zero bit would make the summary falsely report absence. *)
  let summary_bit pe =
    let b = pe land 63 in
    1 lsl (b - ((b lsr 5) land 1))

  (* Fibonacci-style multiplicative hash; the low bits of [pe * odd] are a
     bijection mod the power-of-two capacity, so sequential tvar ids
     spread without clustering. *)
  let probe_start pe mask = pe * 0x9E3779B1 land mask

  let index_insert t pe slot =
    let mask = Array.length t.index - 1 in
    let i = ref (probe_start pe mask) in
    while t.index.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    t.index.(!i) <- slot

  let rebuild_index t cap =
    if Array.length t.index < cap then t.index <- Array.make cap (-1)
    else Array.fill t.index 0 (Array.length t.index) (-1);
    t.indexed <- true;
    Vec.iteri (fun slot e -> index_insert t (wentry_pe e) slot) t.entries

  (* Entry slot of [pe], or -1.  The probe terminates because the table
     keeps load factor <= 1/2, so an empty slot is always reachable. *)
  let find_slot t pe =
    if t.summary land summary_bit pe = 0 then -1
    else if t.indexed then begin
      let mask = Array.length t.index - 1 in
      let rec probe i =
        let s = t.index.(i) in
        if s < 0 then -1
        else if wentry_pe (Vec.get t.entries s) = pe then s
        else probe ((i + 1) land mask)
      in
      probe (probe_start pe mask)
    end
    else begin
      let n = Vec.length t.entries in
      let rec scan i =
        if i >= n then -1
        else if wentry_pe (Vec.get t.entries i) = pe then i
        else scan (i + 1)
      in
      scan 0
    end

  let find_entry t pe =
    match find_slot t pe with
    | -1 -> None
    | s -> Some (Vec.get t.entries s)

  let find (type a) t (tv : a Tvar.t) : a option =
    match find_slot t tv.Tvar.id with
    | -1 -> None
    | s ->
      let (W e) = Vec.get t.entries s in
      Some (Obj.magic e.pending : a)

  let mem_pe t pe = find_slot t pe >= 0

  let add (type a) t (tv : a Tvar.t) (v : a) =
    let pe = tv.Tvar.id in
    match find_slot t pe with
    | s when s >= 0 ->
      let (W e) = Vec.get t.entries s in
      e.pending <- Obj.magic (v : a);
      false
    | _ ->
      let slot = Vec.length t.entries in
      Vec.push t.entries (W { tv; pending = v; locked = false; w_saved = 0 });
      t.summary <- t.summary lor summary_bit pe;
      t.sorted <- false;
      let n = slot + 1 in
      if t.indexed then begin
        if 2 * n > Array.length t.index then
          rebuild_index t (2 * Array.length t.index)
        else index_insert t pe slot
      end
      else if n >= small_threshold then rebuild_index t (max 32 (2 * n));
      true

  let iter_pes t f = Vec.iter (fun e -> f (wentry_pe e)) t.entries

  let ensure_sorted t =
    if not t.sorted then begin
      Vec.sort (fun a b -> compare (wentry_pe a) (wentry_pe b)) t.entries;
      t.sorted <- true;
      (* Sorting permutes entry slots, so the id -> slot table is stale. *)
      if t.indexed then rebuild_index t (Array.length t.index)
    end

  let unlock_all_restore t =
    Vec.iter
      (fun (W e) ->
        if e.locked then begin
          if !Runtime.recovery then
            (* CAS-based: fails silently if a thief already took the lock;
               the stamp is then no longer ours to restore. *)
            ignore (Vlock.unlock_restore_from e.tv.Tvar.lock ~saved:e.w_saved)
          else Vlock.unlock_restore e.tv.Tvar.lock;
          e.locked <- false
        end)
      t.entries

  (* One acquisition attempt for [e]'s lock, with a single orphan-steal
     retry: if the lock is held by a dead/stale owner, reclaim it and try
     once more. *)
  let try_lock_wentry (W e) ~owner =
    let lock = e.tv.Tvar.lock in
    let attempt () =
      let s =
        (Vlock.try_lock_save lock
           ~owner
         [@txlint.allow "lock-release"
             "wentry locks are tracked (e.locked / w_saved); \
              unlock_all_restore and install_and_unlock release them on \
              every commit/abort path, and a crash must leave them \
              orphaned for recovery"])
      in
      s >= 0
      && begin
           e.w_saved <- s;
           e.locked <- true;
           true
         end
    in
    attempt ()
    || (!Runtime.recovery && Recovery.try_steal_vlock lock && attempt ())

  let lock_all t ~owner =
    ensure_sorted t;
    let ok = ref true in
    let n = Vec.length t.entries in
    let i = ref 0 in
    while !ok && !i < n do
      let (W e) = Vec.get t.entries !i in
      if not e.locked then begin
        Runtime.schedule_point_on (Runtime.Lock (wentry_pe (W e)));
        if not (try_lock_wentry (W e) ~owner) then ok := false
      end;
      incr i
    done;
    if not !ok then unlock_all_restore t;
    !ok

  let lock_one t tv ~owner =
    match find_entry t (Tvar.id tv) with
    | None -> invalid_arg "Wset.lock_one: no entry for tvar"
    | Some (W e) ->
      e.locked
      || begin
           Runtime.schedule_point_on (Runtime.Lock (wentry_pe (W e)));
           try_lock_wentry (W e) ~owner
         end

  (* Crash path: the domain "dies" holding its locks, so the entries must
     forget them without releasing — the orphaned locks are exactly what
     recovery reclaims.  Clearing [locked] keeps scratch-set reuse from
     releasing a lock the crashed attempt still notionally holds. *)
  let forget_locks t = Vec.iter (fun (W e) -> e.locked <- false) t.entries

  let install_and_unlock t ~wv =
    let stolen = ref false in
    Vec.iter
      (fun (W e) ->
        assert e.locked;
        if !Runtime.recovery then begin
          (* A thief may take this lock mid-install (lease expiry under
             extreme delay).  The stamp pre-check and the content write
             below are NOT atomic: a steal landing between them still
             clobbers the freshly stolen location.  That residual window
             is inherent to lease-based reclamation (DESIGN.md 5h) — the
             pre-check narrows it from the whole install loop to a couple
             of instructions, the poisoned version the thief minted means
             readers treat the location as "too new" and re-read rather
             than validate a torn value, and the failed release CAS below
             detects the steal after the fact.  What IS guaranteed is
             that a stolen lock is never unlocked out from under its new
             owner (both releases go through an exact-stamp CAS), and
             that a detected steal never turns into a silently-reported
             full commit. *)
          if Vlock.stamp e.tv.Tvar.lock = e.w_saved lor 1 then begin
            (Tvar.unsafe_write e.tv e.pending
           [@txlint.allow "stm-escape"
               "commit-time install: the write lock is held and the \
                version stamp advances right after"]);
            if
              not
                (Vlock.unlock_to_from e.tv.Tvar.lock ~saved:e.w_saved
                   ~version:wv)
            then stolen := true
          end
          else stolen := true
        end
        else begin
          (Tvar.unsafe_write e.tv e.pending
           [@txlint.allow "stm-escape"
               "commit-time install: the write lock is held and the \
                version stamp advances right after"]);
          Vlock.unlock_to e.tv.Tvar.lock ~version:wv
        end;
        e.locked <- false)
      t.entries;
    (* A stolen entry means part of the write set is published and part is
       not.  Never report that as a successful commit: finish the loop
       first (releasing every lock still held, so the abort unwinds
       cleanly), then count the event and abort [Poisoned].  The thief's
       doom of our registry slot normally catches this earlier, at
       [Recovery.check_poisoned] on commit entry — this is the backstop
       for steals that land mid-install.  The entries already published
       stay published (they carry the commit version and consistent
       values; undoing them is impossible once their locks are gone), so
       the history records a partial install flagged by the
       [poisoned_commits] counter rather than a silent success. *)
    if !stolen then begin
      Stats.record_poisoned_commit ();
      Control.abort_tx Control.Poisoned
    end

  (* Serialize the entries of registered persistent tvars.  Engines call
     this right after [install_and_unlock] (guarded on
     [Runtime.durability]): [pending] is attempt-private, so it stays
     valid after the locks are gone, and capturing post-install keeps the
     lock-holding window unchanged.  A [Poisoned] partial install aborts
     above and never reaches this point, so a WAL record always describes
     a fully published write set. *)
  let capture_durable t =
    let acc = ref [] in
    Vec.iter
      (fun (W e) ->
        match Durable.encoder_for e.tv.Tvar.id with
        | None -> ()
        | Some (pid, enc) -> acc := (pid, enc (Obj.repr e.pending)) :: !acc)
      t.entries;
    !acc
end
