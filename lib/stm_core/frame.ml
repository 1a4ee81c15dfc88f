open Frame_intf

module Make (E : ENGINE) = struct
  let slot : E.ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let () =
    Runtime.register_tls
      ~save:(fun () -> Obj.repr (Domain.DLS.get slot))
      ~restore:(fun o -> Domain.DLS.set slot (Obj.obj o : E.ctx option))

  let current () = Domain.DLS.get slot
  let in_transaction () = Option.is_some (Domain.DLS.get slot)

  (* The parent is current again however the body ends; an abort goes on
     unwinding to the top-level attempt (flat nesting). *)
  let nest ~parent child f =
    Domain.DLS.set slot (Some child);
    match f child with
    | result ->
      Domain.DLS.set slot (Some parent);
      result
    | exception e ->
      Domain.DLS.set slot (Some parent);
      raise e

  let attempt mode f =
    let owner = Runtime.fresh_tx_id () in
    let rec_state = Txrec.create () in
    let ctx = E.start mode ~owner rec_state in
    Domain.DLS.set slot (Some ctx);
    if !Runtime.recovery then Registry.publish ~owner;
    if !Runtime.sanitizer then Sanitizer.tx_begin ~owner;
    Txrec.begin_tx rec_state ~tx:owner;
    (* The commit itself can abort, so it must run inside the cleanup
       handler, not in the success branch of a match on [f ctx]. *)
    try
      let result = f ctx in
      (E.commit ctx
       [@txlint.allow "tx-escape"
           "the engine's attempt thunk commits here: installing the write \
            set via unsafe_write under the write locks is the one \
            sanctioned escape"]);
      Txrec.commit_tx rec_state ~tx:owner;
      Txrec.release_remaining rec_state;
      if !Runtime.sanitizer then Sanitizer.tx_end ~owner;
      if !Runtime.recovery then Registry.clear ();
      Domain.DLS.set slot None;
      result
    with
    | Control.Crashed as e ->
      (* Simulated domain death: leave every held lock locked (recovery
         must reclaim them) and mark the registry slot dead, so contenders
         see a legitimate victim. *)
      E.forget ctx;
      if !Runtime.recovery then Registry.mark_crashed ();
      if !Runtime.sanitizer then Sanitizer.tx_crashed ~owner;
      Domain.DLS.set slot None;
      raise e
    | e ->
      E.release ctx;
      Txrec.abort_open rec_state;
      if !Runtime.sanitizer then Sanitizer.tx_end ~owner;
      if !Runtime.recovery then Registry.clear ();
      Domain.DLS.set slot None;
      raise e

  let run_toplevel mode f =
    Retry_loop.run ~stats:E.stats (fun ~attempt:_ -> attempt mode f)
end

let fresh_sets () =
  { wset = Rwsets.Wset.create (); rset = Rwsets.Rset.create ();
    prot = Rwsets.Rset.create () }

module Make_tvar (E : TVAR_ENGINE) = struct
  type 'a tvar = 'a Tvar.t

  let tvar = Tvar.make
  let peek = Tvar.peek
  [@@txlint.allow "stm-escape"
       "re-export of the quiescent escape hatch; callers are linted at \
        their own sites"]

  let unsafe_write = Tvar.unsafe_write
  [@@txlint.allow "stm-escape"
       "re-export of the quiescent escape hatch; callers are linted at \
        their own sites"]

  let tvar_id = Tvar.id

  (* Moving [rv] requires the full scan: the suffix-only one is sound only
     while [rv] is unchanged. *)
  let extend ctx =
    let now = Clock.now () in
    if E.validate ctx then (E.root ctx).rv <- now
    else Control.abort_tx Control.Read_too_new

  (* Sanitizer strict-opacity mode: revalidate at every tracked read, so an
     inconsistent snapshot aborts at the read that would observe it instead
     of at commit.  [rv] is unchanged since the last successful validation,
     so only the unvalidated suffix needs checking. *)
  let check_read ctx =
    Sanitizer.on_tx_read ~validate:(fun () -> E.validate_new ctx)

  (* Per-domain scratch sets, reused across every top-level attempt the
     domain runs: retries stop re-growing the backing stores from their
     initial capacity, which dominates read-heavy workloads.  [Vec.clear]
     wipes freed slots to the dummy, so reuse does not pin dead tvars.
     Simulated runs allocate fresh sets: one domain multiplexes many
     logical processes there, which must not share mutable state. *)
  let scratch = Domain.DLS.new_key fresh_sets

  let sets () =
    if !Runtime.simulated then fresh_sets ()
    else begin
      let s = Domain.DLS.get scratch in
      Rwsets.Wset.clear s.wset;
      Rwsets.Rset.clear s.rset;
      Rwsets.Rset.clear s.prot;
      s
    end

  let commit ctx =
    Runtime.schedule_point ();
    (* Serial-irrevocable gate (see Retry_loop): abort rather than block so
       any locks this transaction holds are released for the token holder. *)
    if not (Runtime.Serial.commit_allowed ()) then
      Control.abort_tx Control.Killed;
    if !Runtime.recovery then Recovery.check_poisoned ();
    let { owner; wset; _ } = E.root ctx in
    if Rwsets.Wset.is_empty wset then begin
      if not (E.validate_read_only ctx) then
        Control.abort_tx Control.Validation_failed
    end
    else begin
      if not (Rwsets.Wset.lock_all wset ~owner) then
        Control.abort_tx Control.Lock_contention;
      (* The locks are held, so [max_version] is stable: it is the GV5
         floor keeping write versions strictly above anything already
         installed at these locations (GV1/GV4 never consult it). *)
      let wv = Clock.tick ~floor:(fun () -> Rwsets.Wset.max_version wset) () in
      (* Commit decides against [wv], not the old [rv] — a full scan. *)
      if not (E.validate ctx) then begin
        Rwsets.Wset.unlock_all_restore wset;
        Control.abort_tx Control.Validation_failed
      end;
      if !Runtime.sanitizer then
        Sanitizer.on_commit ~owner ~wv (E.iter_reads ctx);
      (* Last poison check while the locks are still held: a doomed victim
         must abort here, before installing over a stolen lock.  (The
         abort releases cleanly: CAS-based unlocks skip stolen entries.) *)
      if !Runtime.recovery then begin
        try Recovery.check_poisoned ()
        with e ->
          Rwsets.Wset.unlock_all_restore wset;
          raise e
      end;
      Rwsets.Wset.install_and_unlock wset ~wv;
      (* Post-install: stage the durable entries for the WAL.  Retry_loop
         fires the record once this attempt's outcome is a definitive
         commit, and discards it if anything below still aborts. *)
      if !Runtime.durability then
        Durable.stage ~wv (Rwsets.Wset.capture_durable wset)
    end;
    if Stats.detailed_enabled () then
      Stats.record_rwset_sizes E.stats ~reads:(E.reads ctx)
        ~writes:(Rwsets.Wset.size wset)

  include Make (struct
    type ctx = E.ctx

    let stats = E.stats

    let start mode ~owner rec_state =
      let s = sets () in
      E.start mode { owner; wset = s.wset; rv = Clock.now (); rec_state } s

    let commit = commit
    let release ctx = Rwsets.Wset.unlock_all_restore (E.root ctx).wset
    let forget ctx = Rwsets.Wset.forget_locks (E.root ctx).wset
  end)
end
