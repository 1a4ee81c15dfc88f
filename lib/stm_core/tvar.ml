type 'a t = {
  id : int;
  lock : Vlock.t;
  mutable content : 'a;
}

let make v =
  let id = Runtime.fresh_tvar_id () in
  { id; lock = Vlock.create ~pe:id (); content = v }

let id tv = tv.id

(* Double-stamp read, split in two so that engines build no closure and
   no tuple: [read_stamp] is the first SC atomic load, [read_value] the
   plain load of [content] and the second atomic load.  If the stamp is
   identical and unlocked on both sides then the plain load observed the
   value published by the commit that wrote that stamp (commit stores
   content before the atomic unlock).

   The stamp loads trace themselves (the lock's pe is the tvar id), so a
   traced step covers the content load too — same protection element. *)

(* The stamp was locked: one bounded retry after an orphan steal, since a
   reader stuck behind a lock whose owner died would otherwise abort
   forever.  Kept out of [read_stamp], whose common path stays one load
   and one branch. *)
let locked_stamp tv =
  if !Runtime.recovery && Recovery.try_steal_vlock tv.lock then begin
    let s = Vlock.stamp tv.lock in
    if Vlock.locked s then Control.abort_tx Control.Read_locked;
    s
  end
  else Control.abort_tx Control.Read_locked

let read_stamp tv =
  let s = Vlock.stamp tv.lock in
  if Vlock.locked s then locked_stamp tv else s

let read_value tv ~stamp =
  let v = tv.content in
  if Vlock.stamp tv.lock <> stamp then
    Control.abort_tx Control.Read_inconsistent;
  v

let read_consistent tv =
  let s = read_stamp tv in
  let v = read_value tv ~stamp:s in
  (s, v)

let peek tv =
  if !Runtime.sanitizer then
    Runtime.sanitizer_event (Runtime.San_peek { pe = tv.id });
  tv.content

let unsafe_write tv v =
  if !Runtime.tracing then Runtime.trace_access (Runtime.Write tv.id);
  if !Runtime.sanitizer then begin
    let s = Vlock.stamp tv.lock in
    let locked_owner =
      if Vlock.locked s then Some (Vlock.owner tv.lock) else None
    in
    Runtime.sanitizer_event
      (Runtime.San_unsafe_write { pe = tv.id; locked_owner })
  end;
  tv.content <- v
