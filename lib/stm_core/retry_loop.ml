let starvation_msg = "transaction exceeded retry cap"

let run ~stats f =
  (* The backoff seed is drawn up front, but the [Backoff.t] itself is only
     built on the first abort, and the birth time is only read when a
     deadline is configured: a transaction that commits on its first
     attempt allocates neither. *)
  let seed = Runtime.fresh_tx_id () in
  let budget = !Runtime.tx_timeout_ns in
  let birth_ns = if Option.is_none budget then 0L else Mclock.now_ns () in
  (* Read the flag once per transaction: a mid-transaction toggle may miss
     this loop, but the flag is only flipped between benchmark phases. *)
  let detailed = Stats.detailed_enabled () in
  let deadline_expired () =
    match budget with
    | None -> false
    | Some budget -> Mclock.elapsed_ns birth_ns > budget
  in
  let timeout () =
    Stats.record_timeout stats;
    raise (Control.Timeout "transaction deadline expired")
  in
  (* One full attempt of [f], bracketed by the fault injector's in-attempt
     flag and fed into the stats.  Returns the commit result or the abort
     reason; any other exception propagates to the caller. *)
  let call_attempt n =
    let t0 = if detailed then Mclock.now_ns () else 0L in
    let fi = !Runtime.fault_injection in
    let san = !Runtime.sanitizer in
    let g0 = if san then Sanitizer.attempt_fence () else 0 in
    if fi then Faults.enter_attempt ();
    match f ~attempt:n with
    | result ->
      if fi then Faults.leave_attempt ();
      if san then Sanitizer.audit_attempt ~before:g0 ~aborted:false;
      Stats.record_commit stats;
      (* The attempt committed and its values are installed: fire the
         record the engine staged (if any) into the write-ahead log.
         Post-outcome is the only safe point — an engine-side append
         could log an attempt that a later validation still aborts. *)
      if !Runtime.durability then Durable.on_commit ();
      if detailed then begin
        Stats.record_commit_latency stats (Mclock.elapsed_ns t0);
        Stats.record_retry_depth stats n
      end;
      Ok result
    | exception Control.Abort_tx reason ->
      if fi then Faults.leave_attempt ();
      if san then Sanitizer.audit_attempt ~before:g0 ~aborted:true;
      if !Runtime.durability then Durable.discard_staged ();
      Stats.record_abort stats reason;
      if detailed then Stats.record_abort_latency stats (Mclock.elapsed_ns t0);
      Error reason
    | exception e ->
      if fi then Faults.leave_attempt ();
      if san then Sanitizer.audit_attempt ~before:g0 ~aborted:false;
      if !Runtime.durability then Durable.discard_staged ();
      raise e
  in
  (* Serial-irrevocable fallback: take the global token, then retry until
     commit.  With the token held no other process can commit (the engines'
     serial gates abort them), so the clock stops advancing, straggler
     locks drain, and fault injection is suppressed — the next attempts
     face strictly less interference until one validates.  Only a deadline
     can stop the loop. *)
  let escalate n =
    Stats.record_fallback stats;
    if not (Runtime.Serial.enter ~giveup:deadline_expired ()) then timeout ();
    Fun.protect ~finally:Runtime.Serial.exit (fun () ->
      let rec go n =
        if deadline_expired () then timeout ();
        match call_attempt n with Ok r -> r | Error _ -> go (n + 1)
      in
      go n)
  in
  let rec attempt n backoff =
    if deadline_expired () then timeout ();
    if n > !Runtime.retry_cap then begin
      (* Only reachable with a negative cap: a cap exhausted by aborts is
         handled below, before the wait. *)
      Stats.record_starvation stats;
      match !Runtime.starvation_mode with
      | `Raise -> raise (Control.Starvation starvation_msg)
      | `Fallback -> escalate n
    end
    else begin
      (* Park while some other transaction runs serially: our commit would
         be refused anyway, so don't burn an attempt on it. *)
      if Runtime.Serial.active () && not (Runtime.Serial.mine ()) then
        if not (Runtime.Serial.await_clear ~giveup:deadline_expired ()) then
          timeout ();
      match call_attempt n with
      | Ok r -> r
      | Error _ ->
        if n + 1 > !Runtime.retry_cap then begin
          (* The cap is exhausted.  No backoff wait here: under
             [`Fallback] the escalating attempt must run immediately (it is
             about to serialise the world; delaying it only lengthens the
             stop), and under [`Raise] the caller wants the exception. *)
          Stats.record_starvation stats;
          match !Runtime.starvation_mode with
          | `Raise -> raise (Control.Starvation starvation_msg)
          | `Fallback -> escalate (n + 1)
        end
        else begin
          let b =
            match backoff with
            | Some b -> b
            | None -> Backoff.create ~seed ()
          in
          Backoff.once b;
          attempt (n + 1) (Some b)
        end
    end
  in
  attempt 0 None
