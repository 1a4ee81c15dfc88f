(* lib/persist: CRC framing, the write-ahead log, group commit,
   recovery, torn-tail handling, fault injection (fsync failures, short
   writes), checkpoint compaction and the per-engine durability hook. *)

open Stm_core

(* Durability state is process-global; every test restores a clean
   slate and works on a private temp file. *)
let with_wal_file f =
  let path = Filename.temp_file "test_persist" ".wal" in
  let finally () =
    Persist.reset_for_testing ();
    Faults.disable ();
    Stats.reset_durable_counters ();
    try Sys.remove path with Sys_error _ -> ()
  in
  Persist.reset_for_testing ();
  Fun.protect ~finally (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let mk_ptvar ?(v = 100) id =
  Persist.Ptvar.make ~id ~codec:Persist.Codec.int v

(* --- codecs ----------------------------------------------------------- *)

let test_codecs () =
  let roundtrip : 'a. 'a Persist.Codec.t -> 'a -> 'a =
   fun c v -> c.Persist.Codec.decode (c.Persist.Codec.encode v)
  in
  List.iter
    (fun v ->
      Alcotest.(check int) "int roundtrip" v (roundtrip Persist.Codec.int v))
    [ 0; 1; -1; 42; max_int; min_int ];
  Alcotest.(check string) "string is identity" "abc\000def"
    (roundtrip Persist.Codec.string "abc\000def");
  let m = Persist.Codec.marshal () in
  Alcotest.(check (list int)) "marshal roundtrip" [ 3; 1; 4 ]
    (roundtrip m [ 3; 1; 4 ]);
  Alcotest.check_raises "int codec rejects wrong length"
    (Invalid_argument "Persist.Codec.int: expected 8 bytes") (fun () ->
      ignore (Persist.Codec.int.Persist.Codec.decode "short"))

(* --- CRC-32 ----------------------------------------------------------- *)

let test_crc32 () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "crc32(\"123456789\")" 0xCBF43926
    (Persist.Crc32.string "123456789");
  Alcotest.(check int) "crc32(\"\") is 0" 0 (Persist.Crc32.string "");
  (* Seeding with a prior digest chains: crc(a ++ b). *)
  let a = "hello " and b = "world" in
  Alcotest.(check int) "digest chains across fragments"
    (Persist.Crc32.string (a ^ b))
    (Persist.Crc32.digest ~seed:(Persist.Crc32.string a) b ~pos:0
       ~len:(String.length b))

(* --- WAL roundtrip through a real engine ------------------------------ *)

module type ENGINE = Stm_intf.S with type 'a tvar = 'a Tvar.t

let engines : (string * (module ENGINE)) list =
  [ ("TL2", (module Classic_stm.Tl2));
    ("OE-STM", (module Oestm.Oe));
    ("View-STM", (module Viewstm.V)) ]

let transfer (module S : ENGINE) a b =
  S.atomic (fun ctx ->
      S.write ctx (Persist.Ptvar.tvar a) (S.read ctx (Persist.Ptvar.tvar a) - 1);
      S.write ctx (Persist.Ptvar.tvar b) (S.read ctx (Persist.Ptvar.tvar b) + 1))

let test_engine_roundtrip ((name, engine) : string * (module ENGINE)) () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 and b = mk_ptvar 1 in
      Persist.enable ~path ();
      for _ = 1 to 5 do
        transfer engine a b
      done;
      Alcotest.(check int) (name ^ ": records appended") 5
        (Persist.appended_records ());
      Alcotest.(check int) (name ^ ": all acked at sync_every=1") 5
        (Persist.acked_records ());
      let max_wv = Persist.acked_wv () in
      Alcotest.(check bool) (name ^ ": acked wv positive") true (max_wv > 0);
      Persist.reset_for_testing ();
      (* Restart: fresh ptvars at the initial value, replay the log. *)
      let a' = mk_ptvar 0 and b' = mk_ptvar 1 in
      let s = Persist.recover ~path () in
      Alcotest.(check int) (name ^ ": updates replayed") 5 s.Persist.updates_intact;
      Alcotest.(check int) (name ^ ": values recovered") 95
        (Persist.Ptvar.value a');
      Alcotest.(check int) (name ^ ": conservation") 200
        (Persist.Ptvar.value a' + Persist.Ptvar.value b');
      Alcotest.(check int) (name ^ ": max_wv matches acked") max_wv
        s.Persist.max_wv;
      Alcotest.(check bool) (name ^ ": nothing torn") false s.Persist.truncated;
      (* The clock was fenced above the replayed versions: the next
         durable commit must mint a strictly larger wv. *)
      Persist.enable ~path ();
      transfer engine a' b';
      Alcotest.(check bool) (name ^ ": post-recovery wv above replayed max")
        true
        (Persist.acked_wv () > max_wv))

(* --- group commit ----------------------------------------------------- *)

let test_group_commit () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 and b = mk_ptvar 1 in
      Persist.enable ~sync_every:3 ~path ();
      let e = List.assoc "TL2" engines in
      transfer e a b;
      transfer e a b;
      Alcotest.(check int) "two pending, none acked" 0
        (Persist.acked_records ());
      Alcotest.(check int) "but both appended" 2 (Persist.appended_records ());
      transfer e a b;
      Alcotest.(check int) "third commit triggers the batch fsync" 3
        (Persist.acked_records ());
      transfer e a b;
      Alcotest.(check int) "fourth waits for the next batch" 3
        (Persist.acked_records ());
      Persist.sync ();
      Alcotest.(check int) "explicit sync drains it" 4
        (Persist.acked_records ()))

let test_no_sync_mode () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 and b = mk_ptvar 1 in
      Persist.enable ~sync_every:0 ~path ();
      let e = List.assoc "TL2" engines in
      for _ = 1 to 10 do
        transfer e a b
      done;
      Alcotest.(check int) "negative control never acks" 0
        (Persist.acked_records ());
      Alcotest.(check int) "records are still staged" 10
        (Persist.appended_records ()))

(* --- aborted work leaves no record ------------------------------------ *)

let test_no_record_on_abort () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      let module S = Classic_stm.Tl2 in
      (try
         S.atomic (fun ctx ->
             S.write ctx (Persist.Ptvar.tvar a) 1;
             raise Exit)
       with Exit -> ());
      Alcotest.(check int) "raising body appends nothing" 0
        (Persist.appended_records ());
      S.atomic (fun ctx -> ignore (S.read ctx (Persist.Ptvar.tvar a)));
      Alcotest.(check int) "read-only commit appends nothing" 0
        (Persist.appended_records ());
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 7);
      Alcotest.(check int) "a real write commits one record" 1
        (Persist.appended_records ()))

let test_durability_off_is_noop () =
  with_wal_file (fun _path ->
      let a = mk_ptvar 0 in
      let before = (Stats.durable_counters ()).Stats.durable_commits in
      let module S = Classic_stm.Tl2 in
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 1);
      Alcotest.(check bool) "flag stays down" false !Runtime.durability;
      Alcotest.(check int) "no durable commit counted" before
        (Stats.durable_counters ()).Stats.durable_commits)

(* --- torn-tail fuzz --------------------------------------------------- *)

(* Build a log of [n] single-entry records (ptvar 0 set to 100+k), then
   mutilate the last record every way a crash can: truncate at every
   offset inside it, and flip every one of its bytes.  Recovery must
   always keep the first [n-1] records and never replay the corrupt
   one. *)
let test_torn_tail_fuzz () =
  with_wal_file (fun path ->
      let n = 6 in
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      let module S = Classic_stm.Tl2 in
      for k = 1 to n do
        S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) (100 + k))
      done;
      Persist.reset_for_testing ();
      let whole = read_file path in
      let sc = Persist.Wal.scan_string whole in
      Alcotest.(check int) "fixture has n records" n
        (List.length sc.Persist.Wal.s_records);
      Alcotest.(check int) "fixture has no tail" (String.length whole)
        sc.Persist.Wal.s_good_end;
      let last_off = fst (List.nth sc.Persist.Wal.s_records (n - 1)) in
      let check_variant ~what mutated =
        let sc' = Persist.Wal.scan_string mutated in
        Alcotest.(check int)
          (what ^ ": exactly the intact prefix survives")
          (n - 1)
          (List.length sc'.Persist.Wal.s_records);
        Alcotest.(check int)
          (what ^ ": good_end at the last intact frame")
          last_off sc'.Persist.Wal.s_good_end;
        (* End-to-end: write it out, recover, check state and file. *)
        write_file path mutated;
        Persist.reset_for_testing ();
        let a' = mk_ptvar 0 in
        let s = Persist.recover ~path () in
        Alcotest.(check int) (what ^ ": replayed n-1 updates") (n - 1)
          s.Persist.updates_intact;
        Alcotest.(check int)
          (what ^ ": state is the last intact value")
          (100 + (n - 1))
          (Persist.Ptvar.value a');
        Alcotest.(check bool) (what ^ ": tail was truncated")
          (String.length mutated > last_off)
          s.Persist.truncated;
        Alcotest.(check int) (what ^ ": file cut back to the prefix")
          last_off
          (String.length (read_file path))
      in
      (* Truncations: every length in [last_off, len). *)
      for cut = last_off to String.length whole - 1 do
        check_variant
          ~what:(Printf.sprintf "truncate@%d" cut)
          (String.sub whole 0 cut)
      done;
      (* Bit flips: every byte of the last record. *)
      for off = last_off to String.length whole - 1 do
        let b = Bytes.of_string whole in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
        check_variant
          ~what:(Printf.sprintf "flip@%d" off)
          (Bytes.to_string b)
      done)

let test_missing_and_garbage_log () =
  with_wal_file (fun path ->
      Sys.remove path;
      let a = mk_ptvar 0 in
      let s = Persist.recover ~path () in
      Alcotest.(check int) "missing log replays nothing" 0
        s.Persist.records_intact;
      Alcotest.(check int) "value untouched" 100 (Persist.Ptvar.value a);
      write_file path "this is not a WAL";
      let s = Persist.recover ~path () in
      Alcotest.(check int) "bad magic replays nothing" 0
        s.Persist.records_intact;
      Alcotest.(check bool) "bad magic is never truncated" false
        s.Persist.truncated;
      Alcotest.(check string) "file left alone" "this is not a WAL"
        (read_file path))

(* --- fault injection -------------------------------------------------- *)

let test_fsync_failure () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      Faults.enable { Faults.default with Faults.seed = 11; fsync_fail = 1.0 };
      let module S = Classic_stm.Tl2 in
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 1);
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 2);
      Alcotest.(check int) "appended despite failing fsync" 2
        (Persist.appended_records ());
      Alcotest.(check int) "nothing acknowledged" 0 (Persist.acked_records ());
      Alcotest.(check bool) "failed fsync does not poison" false
        (Persist.wal_broken ());
      let c = Stats.durable_counters () in
      Alcotest.(check bool) "failures counted" true
        (c.Stats.wal_sync_failures >= 2);
      (* Once the injector clears, an explicit sync catches up. *)
      Faults.disable ();
      Persist.sync ();
      Alcotest.(check int) "sync catches up afterwards" 2
        (Persist.acked_records ()))

let test_short_write_poisons () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 in
      Persist.enable ~path ();
      let module S = Classic_stm.Tl2 in
      for k = 1 to 3 do
        S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) (100 + k))
      done;
      Faults.enable { Faults.default with Faults.seed = 7; short_write = 1.0 };
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 999);
      Faults.disable ();
      Alcotest.(check bool) "short write poisons the log" true
        (Persist.wal_broken ());
      Alcotest.(check int) "acks stop at the intact prefix" 3
        (Persist.acked_records ());
      (* Committed user code never saw an exception; further commits are
         simply no longer durable. *)
      S.atomic (fun ctx -> S.write ctx (Persist.Ptvar.tvar a) 1000);
      Alcotest.(check int) "appends dropped once broken" 4
        (Persist.appended_records ());
      let c = Stats.durable_counters () in
      Alcotest.(check bool) "short write counted" true
        (c.Stats.wal_short_writes >= 1);
      Persist.reset_for_testing ();
      let a' = mk_ptvar 0 in
      let s = Persist.recover ~path () in
      Alcotest.(check int) "recovery keeps the intact records" 3
        s.Persist.updates_intact;
      Alcotest.(check int) "state from the intact prefix" 103
        (Persist.Ptvar.value a'))

(* --- checkpoint + compaction ------------------------------------------ *)

let test_checkpoint_compaction () =
  with_wal_file (fun path ->
      let a = mk_ptvar 0 and b = mk_ptvar 1 in
      Persist.enable ~path ();
      let e = List.assoc "TL2" engines in
      for _ = 1 to 8 do
        transfer e a b
      done;
      Persist.checkpoint ();
      for _ = 1 to 2 do
        transfer e a b
      done;
      Persist.reset_for_testing ();
      let sc = Persist.Wal.scan_string (read_file path) in
      Alcotest.(check int) "log compacted to checkpoint + tail" 3
        (List.length sc.Persist.Wal.s_records);
      let a' = mk_ptvar 0 and b' = mk_ptvar 1 in
      let s = Persist.recover ~path () in
      Alcotest.(check bool) "summary says checkpointed" true
        s.Persist.checkpointed;
      Alcotest.(check int) "value through checkpoint + updates" 90
        (Persist.Ptvar.value a');
      Alcotest.(check int) "conservation" 200
        (Persist.Ptvar.value a' + Persist.Ptvar.value b'))

(* --- boosting op-log + plain replayers -------------------------------- *)

let test_boosting_durable_oplog () =
  with_wal_file (fun path ->
      let applied = ref [] in
      Persist.register_replayer ~pid:50 (fun s -> applied := s :: !applied);
      Persist.enable ~path ();
      Boosting.atomic (fun tx ->
          Boosting.log_durable tx ~id:50 "add:7";
          Boosting.log_durable tx ~id:50 "add:9");
      Boosting.atomic (fun tx -> Boosting.log_durable tx ~id:50 "del:7");
      Alcotest.(check int) "one record per boosted root commit" 2
        (Persist.appended_records ());
      Alcotest.(check int) "acked" 2 (Persist.acked_records ());
      Persist.reset_for_testing ();
      Persist.register_replayer ~pid:50 (fun s -> applied := s :: !applied);
      let s = Persist.recover ~path () in
      Alcotest.(check int) "both records replayed" 2 s.Persist.updates_intact;
      Alcotest.(check (list string)) "ops in commit order"
        [ "add:7"; "add:9"; "del:7" ]
        (List.rev !applied);
      (* Plain replayers have no snapshot: a checkpoint must carry their
         records forward verbatim. *)
      Persist.enable ~path ();
      Persist.checkpoint ();
      Persist.reset_for_testing ();
      applied := [];
      Persist.register_replayer ~pid:50 (fun s -> applied := s :: !applied);
      let s = Persist.recover ~path () in
      Alcotest.(check bool) "checkpoint present" true s.Persist.checkpointed;
      Alcotest.(check (list string)) "ops survive compaction"
        [ "add:7"; "add:9"; "del:7" ]
        (List.rev !applied))

(* Two domains hand one abstract lock back and forth, each commit logging
   its position in the real commit order (a counter read under the lock).
   The WAL append runs after the commit releases the lock, so the next
   holder's record can reach the log first; replay goes by commit version,
   and only a unique tick taken under the lock makes that order the real
   one. *)
let test_boosting_replay_order () =
  with_wal_file (fun path ->
      let per_domain = 50 in
      let lock = Boosting.Abstract_lock.create () in
      let seq = Atomic.make 0 in
      let turn = Atomic.make 0 in
      let applied = ref [] in
      Persist.register_replayer ~pid:51 (fun s -> applied := s :: !applied);
      Persist.enable ~path ();
      let worker d () =
        for _ = 1 to per_domain do
          while Atomic.get turn <> d do
            Domain.cpu_relax ()
          done;
          Boosting.atomic (fun tx ->
              Boosting.acquire tx lock;
              let k = Atomic.fetch_and_add seq 1 in
              Boosting.log_undo tx (fun () -> Atomic.set seq k);
              Boosting.log_durable tx ~id:51 (string_of_int k);
              (* Hand over while still holding the lock: the other domain
                 queues on it and commits right after our release, racing
                 our WAL append. *)
              Atomic.set turn (1 - d))
        done
      in
      let ds = Array.init 2 (fun d -> Domain.spawn (worker d)) in
      Array.iter Domain.join ds;
      let n = 2 * per_domain in
      Alcotest.(check int) "every commit acked" n (Persist.acked_records ());
      (* Commit versions, taken in commit order, must strictly increase —
         whatever order the records reached the file in. *)
      let wvs =
        List.filter_map
          (fun (_, r) ->
            match r with
            | Persist.Wal.Update { wv; entries = [ (_, k) ] } ->
              Some (int_of_string k, wv)
            | _ -> None)
          (Persist.Wal.scan path).Persist.Wal.s_records
        |> List.sort compare |> List.map snd
      in
      Alcotest.(check int) "one record per commit" n (List.length wvs);
      List.iteri
        (fun i wv ->
          if i > 0 && wv <= List.nth wvs (i - 1) then
            Alcotest.failf "commit %d has wv %d, not above its predecessor's"
              i wv)
        wvs;
      Persist.reset_for_testing ();
      Persist.register_replayer ~pid:51 (fun s -> applied := s :: !applied);
      let s = Persist.recover ~path () in
      Alcotest.(check int) "every record replayed" n s.Persist.updates_intact;
      Alcotest.(check (list string)) "replay follows the commit order"
        (List.init n string_of_int)
        (List.rev !applied))

(* --- registration discipline ------------------------------------------ *)

let test_registration_errors () =
  with_wal_file (fun path ->
      let _a = mk_ptvar 0 in
      Alcotest.check_raises "duplicate pid rejected"
        (Invalid_argument "Persist: persistent id 0 is already registered")
        (fun () -> ignore (mk_ptvar 0));
      Persist.enable ~path ();
      Alcotest.check_raises "double enable rejected"
        (Invalid_argument "Persist.enable: already enabled") (fun () ->
          Persist.enable ~path ());
      Alcotest.check_raises "recover refuses a live log"
        (Invalid_argument "Persist.recover: disable the live log first")
        (fun () -> ignore (Persist.recover ~path ())))

let suite =
  [ Alcotest.test_case "codecs" `Quick test_codecs;
    Alcotest.test_case "crc32 vectors and chaining" `Quick test_crc32;
    Alcotest.test_case "group commit acks in batches" `Quick
      test_group_commit;
    Alcotest.test_case "no-sync negative control acks nothing" `Quick
      test_no_sync_mode;
    Alcotest.test_case "aborts and read-only commits leave no record"
      `Quick test_no_record_on_abort;
    Alcotest.test_case "durability off is a no-op" `Quick
      test_durability_off_is_noop;
    Alcotest.test_case "torn-tail fuzz: truncations and bit flips" `Quick
      test_torn_tail_fuzz;
    Alcotest.test_case "missing and garbage logs" `Quick
      test_missing_and_garbage_log;
    Alcotest.test_case "fsync failures hold back the ack" `Quick
      test_fsync_failure;
    Alcotest.test_case "short write poisons, prefix recovers" `Quick
      test_short_write_poisons;
    Alcotest.test_case "checkpoint compacts, state survives" `Quick
      test_checkpoint_compaction;
    Alcotest.test_case "boosting durable op-log" `Quick
      test_boosting_durable_oplog;
    Alcotest.test_case "boosting replay order across domains" `Quick
      test_boosting_replay_order;
    Alcotest.test_case "registration discipline" `Quick
      test_registration_errors ]
  @ List.map
      (fun (name, _ as e) ->
        Alcotest.test_case
          (Printf.sprintf "durable roundtrip: %s" name)
          `Quick (test_engine_roundtrip e))
      engines
