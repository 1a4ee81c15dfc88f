(** View transactions (Afek, Morrison, Tzafrir — PODC'10), as discussed in
    Section VIII of the paper:

    "View transactions are a type of relaxed transactions that use
    programmer-specified view pointers to define the critical view of a
    transaction, which is basically equivalent to our notion of a minimal
    protected set.  When committing, a view transaction must pass its
    critical view to its parent transaction (if any), thus satisfying
    outheritance and ensuring composition."

    This module makes that paragraph executable.  It is a third relaxation
    style next to elastic (sliding window) and boosting (abstract locks):

    - {!read_weak} returns a momentarily-consistent value that is {e never
      revalidated} — the programmer asserts the transaction's postcondition
      does not depend on it (heuristic reads, search hints, statistics);
    - {!read} (the critical read) joins the transaction's {e view}: the
      set validated at commit, i.e. its minimal protected set;
    - writes are tracked as usual and installed atomically at commit;
    - a nested transaction's view is passed to its parent at child commit
      — outheritance — so compositions of view transactions are atomic
      with respect to their critical views.

    The demonstration that this matters is in the tests: the Fig. 1
    insertIfAbsent scenario is safe in every interleaving when the guard
    is read critically, and the explorer exhibits a violation when it is
    read weakly — the programmer-facing knob that elastic transactions
    turn automatically. *)

open Stm_core

module type S = sig
  include Stm_intf.S

  val read_weak : ctx -> 'a tvar -> 'a
  (** A consistent read that never joins the critical view: later changes
      to the location do not abort this transaction.  The caller asserts
      the transaction's correctness does not depend on the value staying
      current. *)
end

module Make (C : sig
  val name : string
end) : S with type 'a tvar = 'a Tvar.t = struct
  let name = C.name

  type ctx = {
    tx_id : int;
    root : Frame_intf.root;
    parent : ctx option;
    view : Rwsets.Rset.t;  (* the critical view = minimal protected set *)
  }

  let stats = Stats.create ()

  let rec validate_views ~owner ctx =
    Rwsets.Rset.validate ctx.view ~owner
    && (match ctx.parent with None -> true | Some p -> validate_views ~owner p)

  (* Suffix-only variant for the sanitizer's per-read check: sound while
     [rv] is unchanged since the last successful validation (DESIGN.md 5g);
     extension and commit use the full [validate_views]. *)
  let rec validate_views_new ~owner ctx =
    Rwsets.Rset.validate_new ctx.view ~owner
    && (match ctx.parent with
       | None -> true
       | Some p -> validate_views_new ~owner p)

  (* Entries examined by the innermost view's latest validation — a lower
     bound of the whole-chain scan, exact for unnested transactions. *)
  let record_scan ctx =
    if Stats.detailed_enabled () then
      Stats.record_validation_len stats (Rwsets.Rset.last_scan ctx.view)

  let rec iter_views c f =
    Rwsets.Rset.iter f c.view;
    match c.parent with None -> () | Some p -> iter_views p f

  include Frame.Make_tvar (struct
    type nonrec ctx = ctx

    let stats = stats

    let start _ (root : Frame_intf.root) (s : Frame_intf.sets) =
      { tx_id = root.owner; root; parent = None; view = s.rset }

    let root ctx = ctx.root

    let validate ctx =
      let ok = validate_views ~owner:ctx.root.owner ctx in
      record_scan ctx;
      ok

    let validate_new ctx =
      let ok = validate_views_new ~owner:ctx.root.owner ctx in
      record_scan ctx;
      ok

    let validate_read_only ctx = validate_views ~owner:ctx.root.owner ctx
    let iter_reads = iter_views
    let reads ctx = Rwsets.Rset.length ctx.view
  end)

  (* Critical read: consistent now, validated again at commit. *)
  let read : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    Runtime.schedule_point_on (Runtime.Read (Tvar.id tv));
    match Rwsets.Wset.find ctx.root.wset tv with
    | Some v ->
      if Stats.detailed_enabled () then Stats.record_read_ws_hit stats;
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe:(Tvar.id tv) v;
      v
    | None ->
      if Stats.detailed_enabled () then Stats.record_read_ws_miss stats;
      let s, v = Tvar.read_consistent tv in
      let pe = Tvar.id tv in
      (* Keep critical reads within a consistent snapshot, extending the
         validity interval LSA-style when a newer version appears. *)
      if Vlock.version_of s > ctx.root.rv then extend ctx;
      Txrec.acquire ctx.root.rec_state ~pe;
      Rwsets.Rset.push ctx.view
        { Rwsets.r_lock = tv.Tvar.lock; r_seen = s; r_pe = pe };
      (* Weak reads stay unchecked by the sanitizer by design — they are
         the view-transaction relaxation. *)
      if !Runtime.sanitizer then check_read ctx;
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe v;
      v

  (* Weak read: consistent at the moment it happens, never revalidated.
     Its protection element is acquired and released around the operation,
     which is exactly how the paper's model renders a read that protects
     nothing (an empty contribution to Pmin). *)
  let read_weak : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    Runtime.schedule_point_on (Runtime.Read (Tvar.id tv));
    match Rwsets.Wset.find ctx.root.wset tv with
    | Some v -> v
    | None ->
      let _, v = Tvar.read_consistent tv in
      let pe = Tvar.id tv in
      Txrec.acquire ctx.root.rec_state ~pe;
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe v;
      Txrec.release ctx.root.rec_state ~pe;
      v

  let write : type a. ctx -> a tvar -> a -> unit =
   fun ctx tv v ->
    Runtime.schedule_point_on (Runtime.Write (Tvar.id tv));
    let pe = Tvar.id tv in
    let first = Rwsets.Wset.add ctx.root.wset tv v in
    if first then Txrec.acquire ctx.root.rec_state ~pe;
    Txrec.write ctx.root.rec_state ~tx:ctx.tx_id ~pe v

  let run_nested parent f =
    let child =
      { tx_id = Runtime.fresh_tx_id (); root = parent.root;
        parent = Some parent; view = Rwsets.Rset.create () }
    in
    Txrec.begin_tx child.root.rec_state ~tx:child.tx_id;
    let result = nest ~parent child f in
    Txrec.commit_tx child.root.rec_state ~tx:child.tx_id;
    (* Outheritance: the child's critical view joins the parent's. *)
    Rwsets.Rset.append_into ~src:child.view ~dst:parent.view;
    result

  let atomic ?mode:_ f =
    match current () with
    | Some parent -> run_nested parent f
    | None -> run_toplevel Stm_intf.Regular f
end

(** The default view-transaction instance. *)
module V = Make (struct
  let name = "View-STM"
end)
