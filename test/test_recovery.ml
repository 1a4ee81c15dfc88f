[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

[@@@txlint.allow "lock-release"
    "tests exercise the lock primitives directly and assert the release \
     behaviour themselves"]

(* Crash-tolerant lock recovery: the in-flight registry, lease-based
   orphan-lock reclamation, poisoned-victim aborts, serial-token
   reclamation, and the end-to-end domain-kill scenario.

   Real-time leases need real sleeps, so the staleness tests use leases of
   a few milliseconds and busy-wait past them — long enough to be robust
   against scheduler noise, short enough to keep the suite quick. *)

open Stm_core

let spin_ns ns =
  let t0 = Mclock.now_ns () in
  while Int64.to_int (Int64.sub (Mclock.now_ns ()) t0) < ns do
    Domain.cpu_relax ()
  done

let status = Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Registry.status_name s))
    ( = )

(* Recovery state is process-global; every test restores a clean slate. *)
let with_recovery ?(lease_ns = 5_000_000) f =
  Stats.reset_recovery_counters ();
  Recovery.enable ~lease_ns ();
  let finally () =
    Recovery.disable ();
    Registry.clear ();
    Stats.reset_recovery_counters ()
  in
  Fun.protect ~finally f

let test_registry_lifecycle () =
  let lease_ns = 5_000_000 in
  Registry.publish ~owner:9001;
  Alcotest.check status "published owner is live" Registry.Live
    (Registry.owner_status ~lease_ns ~owner:9001);
  Alcotest.(check bool) "counted live" true (Registry.live_count () >= 1);
  (* No heartbeat past the lease: stale, not dead. *)
  spin_ns (2 * lease_ns);
  Alcotest.check status "silent past the lease" Registry.Stale
    (Registry.owner_status ~lease_ns ~owner:9001);
  Registry.heartbeat ();
  Alcotest.check status "heartbeat revives" Registry.Live
    (Registry.owner_status ~lease_ns ~owner:9001);
  (* Dooming poisons the published generation. *)
  Alcotest.(check bool) "fresh slot is not poisoned" false
    (Registry.poisoned ());
  Alcotest.(check bool) "doom finds the owner" true
    (Registry.doom ~owner:9001);
  Alcotest.(check bool) "doomed slot is poisoned" true (Registry.poisoned ());
  Alcotest.(check bool) "owner_doomed agrees" true
    (Registry.owner_doomed ~owner:9001);
  Alcotest.(check bool) "doom on an absent owner refuses" false
    (Registry.doom ~owner:424242);
  (* Republish resets the poison; clear maps the owner to absent = Dead. *)
  Registry.publish ~owner:9002;
  Alcotest.(check bool) "republish clears the poison" false
    (Registry.poisoned ());
  Registry.clear ();
  Alcotest.check status "cleared owner reads dead" Registry.Dead
    (Registry.owner_status ~lease_ns ~owner:9002);
  Alcotest.check status "unknown owner reads dead" Registry.Dead
    (Registry.owner_status ~lease_ns ~owner:31337)

let test_mark_crashed_is_dead () =
  let lease_ns = 5_000_000 in
  let d =
    Domain.spawn (fun () ->
        Registry.publish ~owner:9003;
        Registry.mark_crashed ())
  in
  Domain.join d;
  Alcotest.check status "crashed owner reads dead immediately" Registry.Dead
    (Registry.owner_status ~lease_ns ~owner:9003)

let test_vlock_steal_dead_owner () =
  with_recovery (fun () ->
      let lock = Vlock.create () in
      let d =
        Domain.spawn (fun () ->
            Registry.publish ~owner:7001;
            Alcotest.(check bool) "victim acquired its lock" true
              (Vlock.try_lock_save lock ~owner:7001 >= 0);
            Registry.mark_crashed ())
      in
      Domain.join d;
      Alcotest.(check bool) "lock is orphaned" true
        (Vlock.locked (Vlock.stamp lock));
      let v0 = Vlock.version_of (Vlock.stamp lock) in
      Alcotest.(check bool) "dead owner's lock is stolen" true
        (Recovery.try_steal_vlock lock);
      let s = Vlock.stamp lock in
      Alcotest.(check bool) "stolen lock is free" false (Vlock.locked s);
      Alcotest.(check bool) "at a poisoned (bumped) version" true
        (Vlock.version_of s > v0);
      Alcotest.(check bool) "the clock covers the poisoned version" true
        (Clock.now () >= Vlock.version_of s);
      Alcotest.(check int) "steal counted" 1
        (Stats.recovery_counters ()).Stats.orphan_steals;
      (* A second attempt finds nothing to steal. *)
      Alcotest.(check bool) "free lock cannot be stolen" false
        (Recovery.try_steal_vlock lock))

let test_live_owner_is_never_stolen () =
  (* Generous lease: domain spawn latency must never make the fresh
     heartbeat look stale. *)
  with_recovery ~lease_ns:2_000_000_000 (fun () ->
      let lock = Vlock.create () in
      Registry.publish ~owner:7002;
      Alcotest.(check bool) "locked" true
        (Vlock.try_lock_save lock ~owner:7002 >= 0);
      (* Heartbeat fresh: a contender (other domain) must refuse. *)
      let stolen = ref true in
      let d =
        Domain.spawn (fun () -> stolen := Recovery.try_steal_vlock lock)
      in
      Domain.join d;
      Alcotest.(check bool) "live owner's lock is left alone" false !stolen;
      Vlock.unlock_restore lock;
      Registry.clear ())

let test_stale_steal_poisons_victim () =
  let lease_ns = 2_000_000 in
  with_recovery ~lease_ns (fun () ->
      let lock = Vlock.create () in
      Registry.publish ~owner:7003;
      let saved = Vlock.try_lock_save lock ~owner:7003 in
      Alcotest.(check bool) "locked" true (saved >= 0);
      (* The victim stops heartbeating (simulated stall), a contender on
         another domain steals past the lease. *)
      spin_ns (3 * lease_ns);
      let stolen = ref false in
      let d =
        Domain.spawn (fun () -> stolen := Recovery.try_steal_vlock lock)
      in
      Domain.join d;
      Alcotest.(check bool) "stale owner's lock is stolen" true !stolen;
      Alcotest.(check bool) "lease expiry counted" true
        ((Stats.recovery_counters ()).Stats.lease_expiries >= 1);
      (* The resurrected victim is doomed: its commit must abort ... *)
      Alcotest.(check bool) "victim is poisoned" true (Registry.poisoned ());
      Alcotest.check_raises "commit aborts Poisoned"
        (Control.Abort_tx Control.Poisoned) Recovery.check_poisoned;
      Alcotest.(check int) "poisoned commit counted" 1
        (Stats.recovery_counters ()).Stats.poisoned_commits;
      (* ... and its CAS-based release fails silently instead of clobbering
         the thief's poisoned version. *)
      Alcotest.(check bool) "victim's release refuses" false
        (Vlock.unlock_restore_from lock ~saved);
      Alcotest.(check bool) "lock stays free at the stolen version" false
        (Vlock.locked (Vlock.stamp lock)))

(* The claim cell: recovery-mode acquisitions publish the holder identity
   atomically with the acquisition (claim CAS before stamp CAS, cleared
   only after the release transition), so a thief reading [Vlock.holder]
   against a locked stamp always sees the actual holder — never the stale
   previous owner the plain [Vlock.owner] field can expose. *)
let test_claim_tracks_holder () =
  with_recovery (fun () ->
      let lock = Vlock.create () in
      Alcotest.(check int) "unlocked: no claim" (-1) (Vlock.holder lock);
      let saved = Vlock.try_lock_save lock ~owner:7100 in
      Alcotest.(check bool) "locked" true (saved >= 0);
      Alcotest.(check int) "claim names the holder" 7100 (Vlock.holder lock);
      Alcotest.(check bool) "release" true
        (Vlock.unlock_restore_from lock ~saved);
      Alcotest.(check int) "released: claim cleared" (-1) (Vlock.holder lock);
      (* Re-acquisition by a different owner moves the claim with the
         stamp; a steal then displaces exactly that claim. *)
      Alcotest.(check bool) "relock" true (Vlock.try_lock lock ~owner:7101);
      Alcotest.(check int) "claim follows the new holder" 7101
        (Vlock.holder lock);
      let s = Vlock.stamp lock in
      (match
         Vlock.steal lock ~observed:s ~victim:7101
           ~version:(Vlock.version_of s + 1)
       with
      | Some displaced ->
        Alcotest.(check int) "steal displaced the holder's claim" 7101
          displaced
      | None -> Alcotest.fail "steal refused a held lock");
      Alcotest.(check int) "stolen: claim cleared for the next locker" (-1)
        (Vlock.holder lock);
      Alcotest.(check bool) "stolen lock is re-acquirable" true
        (Vlock.try_lock lock ~owner:7102);
      Vlock.unlock_restore lock)

(* Install backstop: a steal landing after lock_all leaves the write set
   part-published.  install_and_unlock must finish releasing what it still
   holds, then abort Poisoned and count the event — never report the
   partial install as a successful commit. *)
let test_stolen_install_aborts_poisoned () =
  with_recovery (fun () ->
      let tv1 = Tvar.make 10 and tv2 = Tvar.make 20 in
      let w = Rwsets.Wset.create () in
      ignore (Rwsets.Wset.add w tv1 11);
      ignore (Rwsets.Wset.add w tv2 21);
      Alcotest.(check bool) "locked" true (Rwsets.Wset.lock_all w ~owner:7400);
      (* A thief takes tv2's lock (entries install in id order, so tv1 is
         published before the loop reaches the stolen entry). *)
      let lock2 = tv2.Tvar.lock in
      let s = Vlock.stamp lock2 in
      Alcotest.(check bool) "entry lock held" true (Vlock.locked s);
      (match
         Vlock.steal lock2 ~observed:s ~victim:7400
           ~version:(Vlock.version_of s + 1)
       with
      | Some displaced ->
        Alcotest.(check int) "thief displaced the victim's claim" 7400
          displaced
      | None -> Alcotest.fail "steal refused a held lock");
      Alcotest.check_raises "partial install aborts Poisoned"
        (Control.Abort_tx Control.Poisoned) (fun () ->
          Rwsets.Wset.install_and_unlock w ~wv:42);
      Alcotest.(check int) "entry before the steal is published" 11
        (Tvar.peek tv1);
      Alcotest.(check int) "stolen entry is not written" 20 (Tvar.peek tv2);
      Alcotest.(check bool) "non-stolen lock released" false
        (Vlock.locked (Vlock.stamp tv1.Tvar.lock));
      Alcotest.(check bool) "stolen lock left to its thief" false
        (Vlock.locked (Vlock.stamp lock2));
      Alcotest.(check int) "partial commit counted as poisoned" 1
        (Stats.recovery_counters ()).Stats.poisoned_commits)

(* Boosting applies operations eagerly, so a doomed victim must be caught
   by the acquire-path / commit-gate poison checks — there is no install
   step to stop it.  The first attempt is doomed mid-flight (as a thief
   does before CASing an abstract lock free); it must abort and roll
   back, and the retry must commit cleanly. *)
let test_boosting_poisoned_victim_aborts () =
  with_recovery (fun () ->
      let lock = Boosting.Abstract_lock.create () in
      let attempts = ref 0 in
      let committed =
        Boosting.atomic (fun tx ->
            incr attempts;
            Boosting.acquire tx lock;
            if !attempts = 1 then
              ignore
                (Registry.doom ~owner:(Boosting.Abstract_lock.held_by lock));
            (* The next operation's acquire (reentrant here) must notice
               the doom instead of keeping to mutate under a stolen
               stripe. *)
            Boosting.acquire tx lock;
            true)
      in
      Alcotest.(check bool) "retry commits" true committed;
      Alcotest.(check int) "first attempt aborted, second committed" 2
        !attempts;
      Alcotest.(check bool) "poisoned abort counted" true
        ((Stats.recovery_counters ()).Stats.poisoned_commits >= 1);
      Alcotest.(check int) "lock released after the retry's commit" (-1)
        (Boosting.Abstract_lock.held_by lock))

let test_serial_token_reclaim () =
  with_recovery ~lease_ns:1_000_000 (fun () ->
      let d =
        Domain.spawn (fun () ->
            Alcotest.(check bool) "token acquired" true
              (Runtime.Serial.enter ())
            (* dies without exit: the token is orphaned *))
      in
      Domain.join d;
      Alcotest.(check bool) "token is held by the dead domain" true
        (Runtime.Serial.active ());
      (* enter must reclaim the orphan instead of spinning forever; the
         giveup deadline turns a regression into a failure, not a hang. *)
      let t0 = Mclock.now_ns () in
      let expired () =
        Int64.to_int (Int64.sub (Mclock.now_ns ()) t0) > 2_000_000_000
      in
      Alcotest.(check bool) "token reclaimed from the dead holder" true
        (Runtime.Serial.enter ~giveup:expired ());
      Runtime.Serial.exit ();
      Alcotest.(check bool) "token free again" false (Runtime.Serial.active ());
      Alcotest.(check bool) "reclaim counted as a steal" true
        ((Stats.recovery_counters ()).Stats.orphan_steals >= 1))

(* Serial-token reclaim must doom the victim's slot before force-clearing
   the token, exactly like the lock steal paths: a stale-but-alive holder
   that resurrects must observe itself poisoned (and so abort at its next
   commit-entry check) rather than keep running in presumed-exclusive
   serial mode. *)
let test_serial_reclaim_dooms_victim () =
  let lease_ns = 2_000_000 in
  with_recovery ~lease_ns (fun () ->
      let ready = Atomic.make false in
      let go = Atomic.make false in
      let victim_poisoned = ref false in
      let d =
        Domain.spawn (fun () ->
            Registry.publish ~owner:7200;
            Alcotest.(check bool) "victim takes the token" true
              (Runtime.Serial.enter ());
            Atomic.set ready true;
            (* Stalled: no heartbeats, so the holder goes stale. *)
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            (* Resurrected after the steal: the slot must be doomed. *)
            victim_poisoned := Registry.poisoned ();
            Registry.clear ())
      in
      while not (Atomic.get ready) do
        Domain.cpu_relax ()
      done;
      spin_ns (3 * lease_ns);
      let t0 = Mclock.now_ns () in
      let expired () =
        Int64.to_int (Int64.sub (Mclock.now_ns ()) t0) > 2_000_000_000
      in
      Alcotest.(check bool) "token stolen from the stale holder" true
        (Runtime.Serial.enter ~giveup:expired ());
      Atomic.set go true;
      Domain.join d;
      Runtime.Serial.exit ();
      Alcotest.(check bool) "victim's slot was doomed by the reclaim" true
        !victim_poisoned)

(* A released slot keeps its dead flag until the next occupant resets it,
   so a racer that matched the slot mid-release can never read it back as
   live; and the freed slot stays reclaimable by new domains. *)
let test_released_slot_reuse () =
  let lease_ns = 5_000_000 in
  let d1 = Domain.spawn (fun () -> Registry.publish ~owner:7300) in
  Domain.join d1;
  Alcotest.check status "exited publisher reads dead" Registry.Dead
    (Registry.owner_status ~lease_ns ~owner:7300);
  let d2 =
    Domain.spawn (fun () ->
        Registry.publish ~owner:7301;
        Alcotest.check status "re-claimed slot is live" Registry.Live
          (Registry.owner_status ~lease_ns ~owner:7301);
        Registry.clear ())
  in
  Domain.join d2

(* End-to-end: the chaos domain-kill scenario, both directions.  Killers
   crash mid-commit holding write locks; with recovery the survivors steal
   and keep committing, without it they wedge on the orphans. *)

let test_kill_with_recovery_progresses () =
  List.iter
    (fun engine ->
      let r =
        Harness.Chaos.run_kill ~killers:1 ~survivors:2 ~txns:16
          ~lease_ns:5_000_000 ~recovery:true engine
      in
      let name = r.Harness.Chaos.k_engine in
      Alcotest.(check bool) (name ^ ": crashed") true
        (r.Harness.Chaos.k_crashes >= 1);
      Alcotest.(check bool) (name ^ ": survivors progressed") true
        (r.Harness.Chaos.k_commits > 0);
      Alcotest.(check bool) (name ^ ": stole the orphaned lock") true
        (r.Harness.Chaos.k_orphan_steals >= 1);
      Alcotest.(check bool) (name ^ ": scenario ok") true
        (Harness.Chaos.kill_ok r))
    [ Harness.Chaos.TL2; Harness.Chaos.Boost ]

let test_kill_without_recovery_wedges () =
  let r =
    Harness.Chaos.run_kill ~killers:1 ~survivors:2 ~txns:16 ~recovery:false
      Harness.Chaos.TL2
  in
  Alcotest.(check bool) "crashed" true (r.Harness.Chaos.k_crashes >= 1);
  Alcotest.(check bool) "survivors wedged on the orphaned lock" true
    r.Harness.Chaos.k_wedged;
  Alcotest.(check bool) "nothing was stolen" true
    (r.Harness.Chaos.k_orphan_steals = 0);
  Alcotest.(check bool) "cells still conserved" true
    r.Harness.Chaos.k_conserved;
  Alcotest.(check bool) "scenario ok (the wedge is the expected outcome)"
    true
    (Harness.Chaos.kill_ok r)

let suite =
  [ Alcotest.test_case "registry lifecycle" `Quick test_registry_lifecycle;
    Alcotest.test_case "crashed slot reads dead" `Quick
      test_mark_crashed_is_dead;
    Alcotest.test_case "dead owner's vlock is stolen" `Quick
      test_vlock_steal_dead_owner;
    Alcotest.test_case "live owner is never stolen" `Quick
      test_live_owner_is_never_stolen;
    Alcotest.test_case "stale steal poisons the victim" `Quick
      test_stale_steal_poisons_victim;
    Alcotest.test_case "claim cell tracks the holder" `Quick
      test_claim_tracks_holder;
    Alcotest.test_case "stolen install aborts poisoned" `Quick
      test_stolen_install_aborts_poisoned;
    Alcotest.test_case "boosting: poisoned victim aborts" `Quick
      test_boosting_poisoned_victim_aborts;
    Alcotest.test_case "orphaned serial token is reclaimed" `Quick
      test_serial_token_reclaim;
    Alcotest.test_case "serial reclaim dooms the victim" `Quick
      test_serial_reclaim_dooms_victim;
    Alcotest.test_case "released slot stays dead until re-claimed" `Quick
      test_released_slot_reuse;
    Alcotest.test_case "domain-kill: recovery keeps survivors going" `Slow
      test_kill_with_recovery_progresses;
    Alcotest.test_case "domain-kill: no recovery wedges" `Slow
      test_kill_without_recovery_wedges ]
