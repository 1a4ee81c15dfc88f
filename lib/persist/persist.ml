(* Durable commits: the public face of lib/persist.

   [Ptvar.make] registers a tvar under a stable persistent id with a
   codec; [enable] opens the write-ahead log and installs the commit
   hook; [recover] replays a log into the registered ptvars on restart;
   [checkpoint] compacts the log behind an atomic rename.

   The durability unit is the top-level committed transaction, exactly
   as the paper's relaxed-transaction model defines it: the post-install
   hook fires in Retry_loop once the outcome is a definitive commit, and
   the record carries the commit version wv, so replay can re-impose
   version order across restarts the same way the multi-version systems
   it borrows from reconstruct state from version order. *)

open Stm_core

(* [persist.ml] is the library's interface module, so the framing and
   file-format modules must be re-exported to stay reachable (the
   torn-tail fuzz suite drives [Wal.scan_string] directly). *)
module Crc32 = Crc32
module Wal = Wal

[@@@txlint.allow "stm-escape"
    "recovery replays into quiescent tvars (no transactions are live \
     during [recover] by contract) and checkpoint snapshots use bounded \
     consistent reads, falling back to a peek only on a quiescent log"]

module Codec = struct
  type 'a t = { encode : 'a -> string; decode : string -> 'a }

  let int =
    { encode =
        (fun v ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 (Int64.of_int v);
          Bytes.unsafe_to_string b);
      decode =
        (fun s ->
          if String.length s <> 8 then
            invalid_arg "Persist.Codec.int: expected 8 bytes";
          Int64.to_int (String.get_int64_le s 0)) }

  let string = { encode = Fun.id; decode = Fun.id }

  (* [Marshal]-based catch-all.  Same-program use only: the bytes are not
     stable across compiler versions or type changes. *)
  let marshal () =
    { encode = (fun v -> Marshal.to_string v []);
      decode = (fun s -> Marshal.from_string s 0) }
end

(* ------------------------------------------------------------------ *)
(* Replay / snapshot registry                                          *)

type reg_entry = {
  re_replay : string -> unit;
  re_snapshot : (unit -> int * string) option;
      (* committed (version, bytes); [None] for plain replayers, whose
         records are carried forward verbatim at checkpoint *)
}

let registry : (int, reg_entry) Hashtbl.t = Hashtbl.create 64
let reg_mu = Mutex.create ()

let reg_locked f =
  Mutex.lock reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f

let register ~pid entry =
  let dup =
    reg_locked (fun () ->
        let dup = Hashtbl.mem registry pid in
        if not dup then Hashtbl.replace registry pid entry;
        dup)
  in
  if dup then
    invalid_arg
      (Printf.sprintf "Persist: persistent id %d is already registered" pid)

let register_replayer ~pid ?snapshot replay =
  register ~pid { re_replay = replay; re_snapshot = snapshot }

(* ------------------------------------------------------------------ *)
(* Persistent tvars                                                    *)

module Ptvar = struct
  type 'a t = { pid : int; tv : 'a Tvar.t; codec : 'a Codec.t }

  (* Committed (version, value) of a tvar, for checkpoint snapshots.
     Bounded consistent-read retries ride out concurrent commits; the
     peek fallback can only be reached under a persistent lock-holder,
     which checkpoint's quiescence contract excludes. *)
  let snapshot_tvar tv codec () =
    let rec go n =
      if n = 0 then
        (Vlock.version_of (Vlock.stamp tv.Tvar.lock), codec.Codec.encode (Tvar.peek tv))
      else
        match Tvar.read_consistent tv with
        | stamp, v -> (Vlock.version_of stamp, codec.Codec.encode v)
        | exception Control.Abort_tx _ ->
          Domain.cpu_relax ();
          go (n - 1)
    in
    go 64

  let make ~id ~codec v =
    let tv = Tvar.make v in
    register ~pid:id
      { re_replay = (fun s -> Tvar.unsafe_write tv (codec.Codec.decode s));
        re_snapshot = Some (snapshot_tvar tv codec) };
    Durable.register_encoder ~tvar_id:(Tvar.id tv) ~pid:id (fun o ->
        codec.Codec.encode (Obj.obj o));
    { pid = id; tv; codec }

  let tvar t = t.tv
  let id t = t.pid
  let value t = Tvar.peek t.tv
end

(* ------------------------------------------------------------------ *)
(* Enable / disable                                                    *)

let wal : Wal.t option ref = ref None

let append_staged w (st : Durable.staged) =
  Wal.append w (Wal.Update { wv = st.Durable.s_wv; entries = st.Durable.s_entries })

let enable ?(sync_every = 1) ?(sync_ns = 0) ~path () =
  if Option.is_some !wal then invalid_arg "Persist.enable: already enabled";
  let w = Wal.open_log ~path ~sync_every ~sync_ns in
  wal := Some w;
  Durable.commit_hook := append_staged w;
  Runtime.durability := true

let disable () =
  match !wal with
  | None -> ()
  | Some w ->
    Runtime.durability := false;
    Durable.commit_hook := (fun _ -> ());
    Wal.close w;
    wal := None

let is_enabled () = Option.is_some !wal

let with_wal f = match !wal with None -> invalid_arg "Persist: not enabled" | Some w -> f w

let sync () = with_wal Wal.sync
let wal_path () = with_wal Wal.path
let wal_sync_every () = with_wal Wal.sync_every
let wal_broken () = match !wal with None -> false | Some w -> Wal.broken w

let appended_records () =
  match !wal with None -> 0 | Some w -> Wal.appended_records w

let acked_records () =
  match !wal with None -> 0 | Some w -> Wal.synced_records w

let acked_wv () = match !wal with None -> 0 | Some w -> Wal.synced_wv w

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

type summary = {
  records_intact : int;  (** intact records in the log, all types *)
  updates_intact : int;  (** intact update records (prefix durability) *)
  entries_applied : int;
  entries_skipped : int;
      (** unknown persistent id, or already covered by the checkpoint *)
  torn_bytes : int;  (** bytes past the last intact record *)
  truncated : bool;  (** a torn tail was cut off *)
  max_wv : int;  (** highest replayed commit version (clock catch-up) *)
  checkpointed : bool;  (** the log carried a checkpoint *)
}

let empty_summary =
  { records_intact = 0; updates_intact = 0; entries_applied = 0;
    entries_skipped = 0; torn_bytes = 0; truncated = false; max_wv = 0;
    checkpointed = false }

let find_entry pid = Hashtbl.find_opt registry pid

(* Replay a scanned log into the registered ptvars/replayers.

   Order: the *last* checkpoint seeds per-id base versions and values;
   update records then apply in ascending wv, and an entry lands only if
   its wv is strictly above its id's base — a snapshot taken at version v
   already contains every commit with wv <= v.  wv order extends the
   real dependency order (ticks are unique and follow real order, see
   clock.mli: an update that read or overwrote another's write carries a
   strictly larger wv), so replaying in wv order reconstructs a state
   equivalent to the pre-crash history. *)
let replay_scanned (sc : Wal.scanned) =
  let records = List.map snd sc.Wal.s_records in
  let applied = ref 0 and skipped = ref 0 in
  let base : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let ckpt =
    List.fold_left
      (fun acc r ->
        match r with
        | Wal.Checkpoint { entries; _ } -> Some entries
        | _ -> acc)
      None records
  in
  (match ckpt with
  | None -> ()
  | Some entries ->
    List.iter
      (fun (pid, version, bytes) ->
        Hashtbl.replace base pid version;
        match find_entry pid with
        | Some e ->
          e.re_replay bytes;
          incr applied
        | None -> incr skipped)
      entries);
  let updates =
    List.filter_map
      (function
        | Wal.Update { wv; entries } -> Some (wv, entries)
        | _ -> None)
      records
  in
  let updates =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) updates
  in
  List.iter
    (fun (wv, entries) ->
      List.iter
        (fun (pid, bytes) ->
          let covered =
            match Hashtbl.find_opt base pid with
            | Some v -> wv <= v
            | None -> false
          in
          if covered then incr skipped
          else
            match find_entry pid with
            | Some e ->
              e.re_replay bytes;
              incr applied
            | None -> incr skipped)
        entries)
    updates;
  let max_wv = List.fold_left (fun a r -> max a (Wal.record_wv r)) 0 records in
  Clock.catch_up max_wv;
  { records_intact = List.length records;
    updates_intact = List.length updates;
    entries_applied = !applied;
    entries_skipped = !skipped;
    torn_bytes = sc.Wal.s_file_len - sc.Wal.s_good_end;
    truncated = false;
    max_wv;
    checkpointed = Option.is_some ckpt }

let recover ?(truncate = true) ~path () =
  if is_enabled () then
    invalid_arg "Persist.recover: disable the live log first";
  match Wal.scan path with
  | exception Sys_error _ -> empty_summary  (* no log: nothing to replay *)
  | sc ->
    let s = replay_scanned sc in
    let cut =
      truncate && sc.Wal.s_valid_header
      && sc.Wal.s_file_len > sc.Wal.s_good_end
    in
    if cut then Wal.truncate_tail path ~good_end:sc.Wal.s_good_end;
    { s with truncated = cut }

(* ------------------------------------------------------------------ *)
(* Checkpoint + compaction                                             *)

let checkpoint () =
  with_wal (fun w ->
      Wal.rotate w ~build:(fun old ->
          (* Snapshot every id that can be snapshotted; carry forward,
             verbatim and in order, the update entries of ids that can
             only be replayed (plain replayers have no committed value
             to snapshot, so dropping their records would lose them). *)
          let snaps = ref [] in
          reg_locked (fun () ->
              Hashtbl.iter
                (fun pid e ->
                  match e.re_snapshot with
                  | Some snap ->
                    let version, bytes = snap () in
                    snaps := (pid, version, bytes) :: !snaps
                  | None -> ())
                registry);
          let snaps = List.sort compare !snaps in
          let has_snap pid =
            match find_entry pid with
            | Some { re_snapshot = Some _; _ } -> true
            | _ -> false
          in
          let ckpt_wv =
            List.fold_left (fun a (_, v, _) -> max a v) 0 snaps
          in
          let carried =
            List.filter_map
              (function
                | Wal.Update { wv; entries } ->
                  (match
                     List.filter (fun (pid, _) -> not (has_snap pid)) entries
                   with
                  | [] -> None
                  | kept -> Some (Wal.Update { wv; entries = kept }))
                | Wal.Checkpoint _ -> None)
              old
          in
          Wal.Checkpoint { wv = ckpt_wv; entries = snaps } :: carried))

(* ------------------------------------------------------------------ *)
(* Test / restart isolation                                            *)

let reset_for_testing () =
  disable ();
  reg_locked (fun () -> Hashtbl.reset registry);
  Durable.reset_for_testing ()
