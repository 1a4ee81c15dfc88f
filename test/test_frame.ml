[@@@txlint.allow "stm-escape"
    "tests check committed values with peek once every transaction has \
     ended"]

(* Every engine runs in the shared transaction frame (Stm_core.Frame), but
   each engine instance gets its own "current transaction" slot and its own
   per-domain scratch sets.  An [atomic] of one engine run inside another
   engine's body is therefore a top-level transaction of its own: it must
   commit on its own, leave the enclosing transaction's pending state
   alone, and each engine's [in_transaction] must see only its own
   transactions.  A frame that shared a slot or a scratch set across
   instances would fail these checks; the transaction deadline turns one
   that retries forever into a [Timeout] failure instead of a hang. *)

let with_deadline f () =
  let saved = !Stm_core.Runtime.tx_timeout_ns in
  Stm_core.Runtime.tx_timeout_ns := Some 2_000_000_000;
  Fun.protect ~finally:(fun () -> Stm_core.Runtime.tx_timeout_ns := saved) f

module Oe = Oestm.Oe
module Tl2 = Classic_stm.Tl2

let in_tx () =
  (Oe.in_transaction (), Tl2.in_transaction (), Boosting.in_transaction ())

let check_in_tx msg expected =
  Alcotest.(check (triple bool bool bool)) msg expected (in_tx ())

module Base = Seqds.Hash (Seqds.Int_key)

module BSet =
  Boosting.Boost
    (struct
      type elt = int
      type t = Base.t

      let create () = Base.create ()
      let contains = Base.contains
      let add = Base.add
      let remove = Base.remove
    end)
    (struct
      let hash = Seqds.Int_key.hash
    end)

let test_tl2_inside_oe () =
  let a = Oe.tvar 1 and c = Oe.tvar 0 and b = Tl2.tvar 10 in
  let r =
    Oe.atomic (fun ctx ->
        (* A pending write in OE-STM's write set ... *)
        Oe.write ctx a (Oe.read ctx a + 1);
        let inner =
          Tl2.atomic (fun t ->
              check_in_tx "inside TL2 inside OE-STM" (true, true, false);
              Tl2.write t b (Tl2.read t b + 5);
              Tl2.read t b)
        in
        check_in_tx "back in OE-STM" (true, false, false);
        (* ... survives TL2's own top-level transaction. *)
        let va = Oe.read ctx a in
        Oe.write ctx c (va + inner);
        va + inner)
  in
  Alcotest.(check int) "result" 17 r;
  Alcotest.(check (list int)) "committed values" [ 2; 15; 17 ]
    [ Oe.peek a; Tl2.peek b; Oe.peek c ];
  check_in_tx "after both" (false, false, false)

let test_inner_exception () =
  let a = Oe.tvar 1 and b = Tl2.tvar 10 in
  Oe.atomic (fun ctx ->
      Oe.write ctx a 2;
      (try
         Tl2.atomic (fun t ->
             Tl2.write t b 99;
             (failwith "inner" : unit))
       with Failure _ -> ());
      check_in_tx "TL2 unwound, OE-STM still running" (true, false, false);
      Oe.write ctx a (Oe.read ctx a + 1));
  Alcotest.(check int) "TL2 write rolled back" 10 (Tl2.peek b);
  Alcotest.(check int) "OE-STM writes committed" 3 (Oe.peek a);
  Alcotest.(check int) "TL2 lock released" 11
    (Tl2.atomic (fun t ->
         Tl2.write t b (Tl2.read t b + 1);
         Tl2.read t b));
  check_in_tx "after both" (false, false, false)

let test_oe_inside_boosting () =
  let s = BSet.create ~stripes:8 () in
  let tv = Oe.tvar 0 in
  let r =
    Boosting.atomic (fun _ ->
        let added = BSet.add s 3 in
        check_in_tx "inside boosting" (false, false, true);
        let v =
          Oe.atomic (fun ctx ->
              check_in_tx "inside OE-STM inside boosting" (true, false, true);
              Oe.write ctx tv (Oe.read ctx tv + 1);
              Oe.read ctx tv)
        in
        check_in_tx "back in boosting" (false, false, true);
        added && v = 1)
  in
  Alcotest.(check bool) "result" true r;
  Alcotest.(check bool) "boosted insert committed" true (BSet.contains s 3);
  Alcotest.(check int) "OE-STM write committed" 1 (Oe.peek tv);
  check_in_tx "after both" (false, false, false)

let suite =
  [ Alcotest.test_case "TL2 atomic inside an OE-STM body" `Quick
      (with_deadline test_tl2_inside_oe);
    Alcotest.test_case "TL2 exception inside an OE-STM body" `Quick
      (with_deadline test_inner_exception);
    Alcotest.test_case "OE-STM atomic inside a boosting body" `Quick
      (with_deadline test_oe_inside_boosting) ]
