[@@@txlint.allow "stm-escape"
    "tests drive the escape hatches directly: preloads and post-run \
     state checks are quiescent"]

(* The global version clock (DESIGN.md §5f): one [fetch_and_add] per
   writer commit.  Unit tests for the tick arithmetic and its uniqueness
   across domains, then real-parallelism stress with the sanitizer on and
   a conserved invariant (no lost updates, no torn transfers), and a
   sanitized chaos lane (fault injection + fallback + multi-domain
   stress) that must come back clean. *)

open Stm_core

(* Run [f] with the sanitizer on (without double-enabling when the suite
   already runs under TXSAN=1) and check it recorded no new violations. *)
let sanitized name f =
  let was = Sanitizer.enabled () in
  if not was then Sanitizer.enable ();
  let before = Sanitizer.violation_count () in
  Fun.protect ~finally:(fun () -> if not was then Sanitizer.disable ()) f;
  Alcotest.(check int)
    (name ^ ": no new sanitizer violations")
    before
    (Sanitizer.violation_count ())

(* ------------------------------------------------------------------ *)
(* Tick arithmetic                                                     *)

let test_gv1_tick () =
  let c0 = Clock.now () in
  for i = 1 to 50 do
    Alcotest.(check int) "GV1 ticks by one" (c0 + i) (Clock.tick ())
  done;
  Alcotest.(check int) "clock advanced with the ticks" (c0 + 50) (Clock.now ())

(* The invariant that makes per-location floors unnecessary: ticks taken
   concurrently by two domains are all distinct, and each domain's own
   ticks increase. *)
let test_ticks_unique () =
  let n = 10_000 in
  let worker () = Array.init n (fun _ -> Clock.tick ()) in
  let ds = Array.init 2 (fun _ -> Domain.spawn worker) in
  let got = Array.map Domain.join ds in
  Array.iter
    (fun a ->
      for i = 1 to n - 1 do
        if a.(i) <= a.(i - 1) then
          Alcotest.failf "tick %d after %d on one domain" a.(i) a.(i - 1)
      done)
    got;
  let all = Array.concat (Array.to_list got) in
  Array.sort compare all;
  for i = 1 to Array.length all - 1 do
    if all.(i) = all.(i - 1) then Alcotest.failf "tick %d minted twice" all.(i)
  done;
  Alcotest.(check bool) "the clock covers every tick" true
    (Clock.now () >= all.(Array.length all - 1))

(* ------------------------------------------------------------------ *)
(* Real-parallelism stress, sanitized                                  *)

(* Two domains hammer one counter: every commit ticks under contention,
   and the result must still be exact. *)
let contended_counter () =
  sanitized "counter" @@ fun () ->
  let module S = Classic_stm.Tl2 in
  let n = 1_000 in
  let shared = S.tvar 0 in
  let c0 = Clock.now () in
  let worker () =
    for _ = 1 to n do
      S.atomic (fun ctx -> S.write ctx shared (S.read ctx shared + 1))
    done
  in
  let ds = Array.init 2 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (2 * n) (S.peek shared);
  Alcotest.(check bool) "the clock moved" true (Clock.now () > c0)

(* Three domains transfer between four accounts under TL2 and OE-STM:
   conservation plus a clean sanitizer are the whole spec. *)
let sanitized_transfers () =
  sanitized "transfers" @@ fun () ->
  List.iter
    (fun (module S : Stm_intf.S) ->
      let accounts = Array.init 4 (fun _ -> S.tvar 100) in
      let worker seed () =
        let rng = ref seed in
        let next m =
          rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
          !rng mod m
        in
        for _ = 1 to 300 do
          let src = next 4 and dst = next 4 in
          S.atomic (fun ctx ->
              let a = S.read ctx accounts.(src) in
              let b = S.read ctx accounts.(dst) in
              if src <> dst then begin
                S.write ctx accounts.(src) (a - 1);
                S.write ctx accounts.(dst) (b + 1)
              end)
        done
      in
      let ds = Array.init 3 (fun i -> Domain.spawn (worker (i + 1))) in
      Array.iter Domain.join ds;
      let total = Array.fold_left (fun acc tv -> acc + S.peek tv) 0 accounts in
      Alcotest.(check int) (S.name ^ ": conservation") 400 total)
    [ (module Classic_stm.Tl2 : Stm_intf.S); (module Oestm.Oe : Stm_intf.S) ]

(* ------------------------------------------------------------------ *)
(* Sanitized chaos lane                                                *)

let chaos_lane () =
  sanitized "chaos" @@ fun () ->
  List.iter
    (fun engine ->
      let r =
        Harness.Chaos.run_engine ~seeds:[ 11 ] ~runs_per_seed:10
          ~stress_domains:2 ~stress_txns:100 engine
      in
      Alcotest.(check bool)
        (Harness.Chaos.engine_name engine ^ ": chaos clean")
        true
        (Harness.Chaos.ok r))
    [ Harness.Chaos.TL2; Harness.Chaos.OE ]

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "GV1 ticks by one" `Quick test_gv1_tick;
    Alcotest.test_case "ticks are unique across domains" `Quick
      test_ticks_unique;
    Alcotest.test_case "contended counter (2 domains, sanitized)" `Slow
      contended_counter;
    Alcotest.test_case "transfers conserve (3 domains, sanitized)" `Slow
      sanitized_transfers;
    Alcotest.test_case "chaos lane (faults + fallback + stress)" `Slow
      chaos_lane ]
