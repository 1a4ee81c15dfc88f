(** Classic (non-relaxed) software transactional memories.

    TL2, LSA and SwissTM share one engine: invisible reads over versioned
    locks, a write set installed at commit, and a global version clock.
    They differ in three published design choices, captured by {!POLICY}:

    - {b when write locks are acquired} — at commit (TL2) or at the write
      itself (LSA, SwissTM), the latter detecting write/write conflicts
      eagerly;
    - {b whether the read validity interval can be extended} — TL2 aborts a
      read of a version newer than its start time, LSA and SwissTM revalidate
      the read set and slide the interval forward (lazy snapshot);
    - {b the contention manager} — on a write-lock conflict a timid
      transaction aborts itself, while SwissTM's two-phase manager lets
      transactions that already performed enough updates spin briefly for
      the lock before giving up (a simplification of its greedy manager
      that preserves the "writers eventually win" behaviour without remote
      aborts).

    Nesting is flat: a nested [atomic] runs inside the parent's context, so
    every location accessed by the child stays protected until the parent
    commits — classic transactions satisfy outheritance by construction
    (Section IV of the paper). *)

open Stm_core

module type POLICY = sig
  val name : string

  val eager_write_lock : bool
  (** Acquire the write lock at the first [write] instead of at commit. *)

  val extend_on_read : bool
  (** Extend the validity interval (revalidating the read set) instead of
      aborting when a too-new version is read. *)

  val priority_spin : int
  (** Bounded number of retries a priority transaction performs on a
      write-lock conflict before aborting.  0 = timid. *)

  val priority_threshold : int
  (** Number of writes after which a transaction gains priority;
      [max_int] = never. *)
end

module Make (P : POLICY) :
  Stm_intf.S with type 'a tvar = 'a Tvar.t = struct
  let name = P.name

  type ctx = {
    root : Frame_intf.root;
    mutable cur_tx : int;  (* innermost transaction id, for recording *)
    rset : Rwsets.Rset.t;
  }

  let stats = Stats.create ()

  let record_scan ctx =
    if Stats.detailed_enabled () then
      Stats.record_validation_len stats (Rwsets.Rset.last_scan ctx.rset)

  include Frame.Make_tvar (struct
    type nonrec ctx = ctx

    let stats = stats

    let start _ (root : Frame_intf.root) (s : Frame_intf.sets) =
      { root; cur_tx = root.owner; rset = s.rset }

    let root ctx = ctx.root

    let validate ctx =
      let ok = Rwsets.Rset.validate ctx.rset ~owner:ctx.root.owner in
      record_scan ctx;
      ok

    let validate_new ctx =
      let ok = Rwsets.Rset.validate_new ctx.rset ~owner:ctx.root.owner in
      record_scan ctx;
      ok

    let validate_read_only _ = true
    let iter_reads ctx f = Rwsets.Rset.iter f ctx.rset
    let reads ctx = Rwsets.Rset.length ctx.rset
  end)

  let read : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    let pe = Tvar.id tv in
    Runtime.schedule_read pe;
    let slot = Rwsets.Wset.slot ctx.root.wset tv in
    if slot >= 0 then begin
      let v = Rwsets.Wset.pending ctx.root.wset slot tv in
      if Stats.detailed_enabled () then Stats.record_read_ws_hit stats;
      Txrec.read ctx.root.rec_state ~tx:ctx.cur_tx ~pe v;
      v
    end
    else begin
      if Stats.detailed_enabled () then Stats.record_read_ws_miss stats;
      let s = Tvar.read_stamp tv in
      let v = Tvar.read_value tv ~stamp:s in
      if Vlock.version_of s > ctx.root.rv then begin
        if not P.extend_on_read then Control.abort_tx Control.Read_too_new;
        extend ctx
      end;
      Txrec.acquire ctx.root.rec_state ~pe;
      Rwsets.Rset.add ctx.rset tv.Tvar.lock ~seen:s ~pe;
      if !Runtime.sanitizer then check_read ctx;
      Txrec.read ctx.root.rec_state ~tx:ctx.cur_tx ~pe v;
      v
    end

  (* Eager lock acquisition with the two-phase contention manager: priority
     transactions retry the lock a bounded number of times. *)
  let acquire_write_lock ctx tv =
    let spins =
      if Rwsets.Wset.size ctx.root.wset >= P.priority_threshold then
        P.priority_spin
      else 0
    in
    let rec go n =
      if
        (Rwsets.Wset.lock_one ctx.root.wset tv
           ~owner:ctx.root.owner
         [@txlint.allow "lock-release"
             "encounter-time locks join the wset; commit releases them \
              on every path (install, abort-restore, crash-forget)"])
      then ()
      else if n > 0 then begin
        Domain.cpu_relax ();
        go (n - 1)
      end
      else Control.abort_tx Control.Lock_contention
    in
    go spins

  let write : type a. ctx -> a tvar -> a -> unit =
   fun ctx tv v ->
    let pe = Tvar.id tv in
    Runtime.schedule_write pe;
    let first = Rwsets.Wset.add ctx.root.wset tv v in
    if first then begin
      Txrec.acquire ctx.root.rec_state ~pe;
      if P.eager_write_lock then acquire_write_lock ctx tv
    end;
    Txrec.write ctx.root.rec_state ~tx:ctx.cur_tx ~pe v

  let run_nested ctx f =
    let tx = Runtime.fresh_tx_id () in
    let saved = ctx.cur_tx in
    Txrec.begin_tx ctx.root.rec_state ~tx;
    ctx.cur_tx <- tx;
    let result = f ctx in
    (* Flat nesting: the child's protected set simply stays in the parent's
       read/write sets — outheritance by construction. *)
    Txrec.commit_tx ctx.root.rec_state ~tx;
    ctx.cur_tx <- saved;
    result

  let atomic ?mode:_ f =
    match current () with
    | Some ctx -> run_nested ctx f
    | None -> run_toplevel Stm_intf.Regular f
end

(** TL2 (Dice, Shalev, Shavit — DISC'06): commit-time locking, no interval
    extension, timid contention management. *)
module Tl2 = Make (struct
  let name = "TL2"
  let eager_write_lock = false
  let extend_on_read = false
  let priority_spin = 0
  let priority_threshold = max_int
end)

(** LSA (Riegel, Felber, Fetzer — DISC'06): lazy snapshot with interval
    extension and eager lock acquirement. *)
module Lsa = Make (struct
  let name = "LSA"
  let eager_write_lock = true
  let extend_on_read = true
  let priority_spin = 0
  let priority_threshold = max_int
end)

(** SwissTM (Dragojević, Felber, Gramoli, Guerraoui — CACM'11): eager
    write/write conflict detection, lazy read validation with extension,
    two-phase contention manager. *)
module Swisstm = Make (struct
  let name = "SwissTM"
  let eager_write_lock = true
  let extend_on_read = true
  let priority_spin = 64
  let priority_threshold = 10
end)
