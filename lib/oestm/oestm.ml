(** OE-STM — the paper's contribution (Section V).

    The engine implements the elastic transaction model of Felber, Gramoli
    and Guerraoui (DISC'09): an [Elastic] transaction keeps only a short
    sliding window of its most recent reads while it has not written, so
    conflicts on the read-only prefix of a traversal are ignored; from the
    first write on, every access is tracked and validated at commit
    together with the window contents at the moment of the write.
    [Regular] transactions track everything with TL2/LSA-style snapshot
    validation.

    The window spans the last {e two} reads, which is what
    linked-structure updates need: an unlink reads the predecessor cell,
    then the successor cell, then writes the predecessor — both reads must
    still be valid at commit or a concurrent insertion between them is
    silently overwritten (a lost update this repository's move/rebalance
    example catches immediately with a size-1 window).

    Nested transactions are where implementations differ, and this module is
    parameterised by the {!nesting} policy:

    - {!Outherit} — the child passes its read set, its last-read entry and
      its write set to the parent at commit (Fig. 4 of the paper), so the
      parent keeps detecting conflicts on everything the child protected
      until the parent itself commits.  This satisfies outheritance and
      therefore weak composability (Theorems 4.3 and 4.4).
    - {!Drop} — the child's conflict information is discarded when it
      commits, which is what composing elastic transactions naively does
      (Fig. 1); the resulting STM admits non-atomic compositions, and the
      test suite demonstrates it by exhaustive interleaving exploration.

    One deliberate difference with the original E-STM: a child's writes are
    kept pending in the (shared) top-level write set until the top-level
    commit rather than being installed at child commit.  This is required
    for the parent's isolation either way, and it only makes the [Drop]
    instance {e more} protective than real E-STM — the composition
    violations it exhibits come purely from the dropped read information,
    exactly the phenomenon the paper describes. *)

open Stm_core

type nesting = Outherit | Drop

module type CONFIG = sig
  val name : string
  val nesting : nesting

  val window_size : int
  (** Number of most-recent reads an elastic transaction keeps mutually
      validated before its first write.  2 (the default instances) is what
      linked-structure updates require; 1 is the ablation that loses
      updates on chain unlinks (kept for the regression test). *)
end

module type S_EXT = sig
  include Stm_intf.S

  val release : ctx -> 'a tvar -> unit
end

module Make (C : CONFIG) : S_EXT with type 'a tvar = 'a Tvar.t = struct
  let name = C.name

  type ctx = {
    tx_id : int;
    mode : Stm_intf.mode;
    root : Frame_intf.root;  (* children's writes stay pending there *)
    parent : ctx option;
    rset_snap : Rwsets.Rset.t;
        (* reads validated against [rv] when made (regular mode and
           post-write elastic reads); consistent as a snapshot *)
    rset_prot : Rwsets.Rset.t;
        (* protected elastic entries: window entries promoted at the first
           write or outherited from children; validated at commit *)
    (* The elastic window, unboxed: [w0] is the most recent elastic read,
       [w1] the second most recent (unused when [C.window_size] is 1).
       Each slot is the observed lock, stamp and pe; pe -1 = empty. *)
    mutable w0_lock : Vlock.t;
    mutable w0_seen : int;
    mutable w0_pe : int;
    mutable w1_lock : Vlock.t;
    mutable w1_seen : int;
    mutable w1_pe : int;
    mutable written : bool;
  }

  let keep_two = C.window_size >= 2

  let stats = Stats.create ()

  let window_valid ~owner ctx =
    (ctx.w0_pe < 0 || Rwsets.read_valid ~owner ctx.w0_lock ~seen:ctx.w0_seen)
    && (ctx.w1_pe < 0
       || Rwsets.read_valid ~owner ctx.w1_lock ~seen:ctx.w1_seen)

  (* The window's reads, oldest first. *)
  let iter_window f ctx =
    if ctx.w1_pe >= 0 then f ctx.w1_lock ctx.w1_seen ctx.w1_pe;
    if ctx.w0_pe >= 0 then f ctx.w0_lock ctx.w0_seen ctx.w0_pe

  let add_window rs ctx =
    iter_window (fun lock seen pe -> Rwsets.Rset.add rs lock ~seen ~pe) ctx

  let level ~tx_id ~mode ~root ~parent ~rset_snap ~rset_prot =
    { tx_id; mode; root; parent; rset_snap; rset_prot;
      w0_lock = Rwsets.no_lock; w0_seen = 0; w0_pe = -1;
      w1_lock = Rwsets.no_lock; w1_seen = 0; w1_pe = -1; written = false }

  let validate_level ~owner ctx =
    Rwsets.Rset.validate ctx.rset_snap ~owner
    && Rwsets.Rset.validate ctx.rset_prot ~owner
    && window_valid ~owner ctx

  (* Every tracked observation of this level and its ancestors is still
     valid.  Committed children have already merged their sets into their
     parent, so walking the parent chain covers the whole transaction. *)
  let rec validate_levels ~owner ctx =
    validate_level ~owner ctx
    && (match ctx.parent with None -> true | Some p -> validate_levels ~owner p)

  let rec validate_protected ~owner ctx =
    Rwsets.Rset.validate ctx.rset_prot ~owner
    && window_valid ~owner ctx
    && (match ctx.parent with
       | None -> true
       | Some p -> validate_protected ~owner p)

  (* Suffix-only variant for the sanitizer's per-read strict-opacity check:
     [rv] is unchanged between successful validations at reads, so only the
     entries appended since need checking (see DESIGN.md 5g).  Extension
     and commit use the full [validate_levels]. *)
  let rec validate_levels_new ~owner ctx =
    Rwsets.Rset.validate_new ctx.rset_snap ~owner
    && Rwsets.Rset.validate_new ctx.rset_prot ~owner
    && window_valid ~owner ctx
    && (match ctx.parent with
       | None -> true
       | Some p -> validate_levels_new ~owner p)

  let rec protected_is_empty ctx =
    Rwsets.Rset.is_empty ctx.rset_prot
    && (match ctx.parent with None -> true | Some p -> protected_is_empty p)

  (* Entries examined by the innermost level's latest validation — a lower
     bound of the whole-chain scan, exact for unnested transactions. *)
  let record_scan ctx =
    if Stats.detailed_enabled () then
      Stats.record_validation_len stats
        (Rwsets.Rset.last_scan ctx.rset_snap
        + Rwsets.Rset.last_scan ctx.rset_prot)

  (* Every tracked read of this level and its ancestors, for the
     sanitizer's commit check. *)
  let rec iter_levels level f =
    Rwsets.Rset.iter f level.rset_snap;
    Rwsets.Rset.iter f level.rset_prot;
    iter_window f level;
    match level.parent with None -> () | Some p -> iter_levels p f

  include Frame.Make_tvar (struct
    type nonrec ctx = ctx

    let stats = stats

    let start mode (root : Frame_intf.root) (s : Frame_intf.sets) =
      level ~tx_id:root.owner ~mode ~root ~parent:None ~rset_snap:s.rset
        ~rset_prot:s.prot

    let root ctx = ctx.root

    let validate ctx =
      let ok = validate_levels ~owner:ctx.root.owner ctx in
      record_scan ctx;
      ok

    let validate_new ctx =
      let ok = validate_levels_new ~owner:ctx.root.owner ctx in
      record_scan ctx;
      ok

    (* Read-only.  A lone elastic transaction needs no commit validation
       (it serialised at its last read); only outherited protected sets
       must still hold, so that composed children appear adjacent. *)
    let validate_read_only ctx =
      protected_is_empty ctx
      || validate_protected ~owner:ctx.root.owner ctx

    let iter_reads = iter_levels

    (* Committed children have merged their sets into the root, so the
       root's sets are the whole transaction's footprint.  The elastic
       window holds at most two more tracked reads. *)
    let reads ctx =
      Rwsets.Rset.length ctx.rset_snap
      + Rwsets.Rset.length ctx.rset_prot
      + Bool.to_int (ctx.w0_pe >= 0)
      + Bool.to_int (ctx.w1_pe >= 0)
  end)

  let read : type a. ctx -> a tvar -> a =
   fun ctx tv ->
    let pe = Tvar.id tv in
    Runtime.schedule_read pe;
    let slot = Rwsets.Wset.slot ctx.root.wset tv in
    if slot >= 0 then begin
      let v = Rwsets.Wset.pending ctx.root.wset slot tv in
      if Stats.detailed_enabled () then Stats.record_read_ws_hit stats;
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe v;
      v
    end
    else begin
      if Stats.detailed_enabled () then Stats.record_read_ws_miss stats;
      let s = Tvar.read_stamp tv in
      let v = Tvar.read_value tv ~stamp:s in
      if ctx.mode = Elastic && not ctx.written then begin
        (* Elastic prefix: the new read must be mutually atomic with the
           reads still in the window; anything older is forgotten (the
           relaxation). *)
        if not (window_valid ~owner:ctx.root.owner ctx) then
          Control.abort_tx Control.Window_invalid;
        Txrec.acquire ctx.root.rec_state ~pe;
        if keep_two then begin
          if ctx.w1_pe >= 0 then Txrec.release ctx.root.rec_state ~pe:ctx.w1_pe;
          ctx.w1_lock <- ctx.w0_lock;
          ctx.w1_seen <- ctx.w0_seen;
          ctx.w1_pe <- ctx.w0_pe
        end
        else if ctx.w0_pe >= 0 then
          Txrec.release ctx.root.rec_state ~pe:ctx.w0_pe;
        ctx.w0_lock <- tv.Tvar.lock;
        ctx.w0_seen <- s;
        ctx.w0_pe <- pe
      end
      else begin
        if Vlock.version_of s > ctx.root.rv then extend ctx;
        Txrec.acquire ctx.root.rec_state ~pe;
        Rwsets.Rset.add ctx.rset_snap tv.Tvar.lock ~seen:s ~pe
      end;
      (* In sanitizer mode the window is revalidated too. *)
      if !Runtime.sanitizer then check_read ctx;
      Txrec.read ctx.root.rec_state ~tx:ctx.tx_id ~pe v;
      v
    end

  (* From the first write on, the window's reads belong to the minimal
     protected set (Section V: Pmin = {r_k, ..., r_n}). *)
  let promote_window ctx =
    ctx.written <- true;
    add_window ctx.rset_prot ctx;
    ctx.w0_pe <- -1;
    ctx.w1_pe <- -1

  let write : type a. ctx -> a tvar -> a -> unit =
   fun ctx tv v ->
    let pe = Tvar.id tv in
    Runtime.schedule_write pe;
    if not ctx.written then promote_window ctx;
    let first = Rwsets.Wset.add ctx.root.wset tv v in
    if first then Txrec.acquire ctx.root.rec_state ~pe;
    Txrec.write ctx.root.rec_state ~tx:ctx.tx_id ~pe v

  (* DSTM-style early release (Section II.A of the paper: "the protection
     element is released when the release operation of the transactional
     memory is called").  Drops every tracked read of [tv] from the running
     transaction — all nesting levels — so later conflicts on it are
     ignored.  The caller asserts that its postcondition no longer depends
     on the location; misuse trades atomicity for concurrency exactly as
     in DSTM. *)
  let release : type a. ctx -> a tvar -> unit =
   fun ctx tv ->
    let pe = Tvar.id tv in
    let rec walk level =
      let dropped =
        Rwsets.Rset.filter_pe level.rset_snap ~pe
        + Rwsets.Rset.filter_pe level.rset_prot ~pe
      in
      let dropped = ref dropped in
      if level.w0_pe = pe then begin
        level.w0_pe <- -1;
        incr dropped
      end;
      if level.w1_pe = pe then begin
        level.w1_pe <- -1;
        incr dropped
      end;
      for _ = 1 to !dropped do
        Txrec.release ctx.root.rec_state ~pe
      done;
      match level.parent with None -> () | Some p -> walk p
    in
    walk ctx

  (* Child commit, part 1 (before the commit event): with [Drop], the child
     validates itself at its own commit, as E-STM does. *)
  let validate_child child =
    match C.nesting with
    | Outherit -> ()
    | Drop ->
      if not (validate_level ~owner:child.root.owner child) then
        Control.abort_tx Control.Validation_failed

  (* Child commit, part 2 (after the commit event): outherit the protected
     set to the parent, or drop it (releasing the protection elements — the
     composition-breaking behaviour of Fig. 1). *)
  let close_child ~parent child =
    match C.nesting with
    | Outherit ->
      Rwsets.Rset.append_into ~src:child.rset_snap ~dst:parent.rset_snap;
      Rwsets.Rset.append_into ~src:child.rset_prot ~dst:parent.rset_prot;
      add_window parent.rset_prot child;
      if child.written && not parent.written then promote_window parent
    | Drop ->
      let release _ _ pe = Txrec.release child.root.rec_state ~pe in
      Rwsets.Rset.iter release child.rset_snap;
      Rwsets.Rset.iter release child.rset_prot;
      iter_window release child

  let run_nested parent mode f =
    let child =
      level ~tx_id:(Runtime.fresh_tx_id ()) ~mode ~root:parent.root
        ~parent:(Some parent) ~rset_snap:(Rwsets.Rset.create ())
        ~rset_prot:(Rwsets.Rset.create ())
    in
    Txrec.begin_tx child.root.rec_state ~tx:child.tx_id;
    let result = nest ~parent child f in
    validate_child child;
    Txrec.commit_tx child.root.rec_state ~tx:child.tx_id;
    close_child ~parent child;
    result

  let atomic ?(mode = Stm_intf.Regular) f =
    match current () with
    | Some parent -> run_nested parent mode f
    | None -> run_toplevel mode f
end

(** The paper's OE-STM: elastic transactions that compose. *)
module Oe = Make (struct
  let name = "OE-STM"
  let nesting = Outherit
  let window_size = 2
end)

(** Elastic transactions composed without outheritance — the broken
    composition of Fig. 1, kept as an executable counterexample. *)
module E_broken = Make (struct
  let name = "E-STM(drop)"
  let nesting = Drop
  let window_size = 2
end)

(** Ablation: a one-read window.  Unsafe for chain updates (an unlink's
    predecessor read escapes validation — see the module comment); the
    test suite demonstrates the lost update by exhaustive exploration. *)
module Oe_window1 = Make (struct
  let name = "OE-STM(w1)"
  let nesting = Outherit
  let window_size = 1
end)
