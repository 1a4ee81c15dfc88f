(* Allocation gate: a transactional read allocates nothing.  For every
   engine instance, one warmed-up top-level transaction reads 256
   distinct tvars and one reads 1024; the minor words they allocate must
   be equal, i.e. no word per extra read.  The same holds for re-reads
   that hit the write set.  Unlike throughput this is deterministic, so
   it gates.

   The sanitizer (TXSAN lane) and an attached recorder instrument every
   read on purpose; under either the gate measures nothing and is
   skipped with a message saying so. *)

open Stm_core

let small = 256
let big = 1024

(* One engine instance: [misses n] runs a top-level transaction reading
   [n] distinct tvars; [hits n] one writing eight tvars, then making [n]
   re-reads of them. *)
type case = { name : string; misses : int -> unit; hits : int -> unit }

let case (type c) name (atomic : (c -> unit) -> unit)
    (read : c -> int Tvar.t -> int) (write : c -> int Tvar.t -> int -> unit)
    =
  let tvs = Array.init big Tvar.make in
  let misses n =
    atomic (fun ctx ->
        for i = 0 to n - 1 do
          ignore (read ctx tvs.(i))
        done)
  in
  let hits n =
    atomic (fun ctx ->
        for i = 0 to 7 do
          write ctx tvs.(i) (i + 1)
        done;
        for i = 0 to n - 1 do
          ignore (read ctx tvs.(i land 7))
        done)
  in
  { name; misses; hits }

let cases () =
  let module Oe = Oestm.Oe in
  let module V = Viewstm.V in
  [ case "TL2" (fun f -> Classic_stm.Tl2.atomic f) Classic_stm.Tl2.read
      Classic_stm.Tl2.write;
    case "LSA" (fun f -> Classic_stm.Lsa.atomic f) Classic_stm.Lsa.read
      Classic_stm.Lsa.write;
    case "SwissTM" (fun f -> Classic_stm.Swisstm.atomic f)
      Classic_stm.Swisstm.read Classic_stm.Swisstm.write;
    case "OE-STM regular" (fun f -> Oe.atomic ~mode:Stm_intf.Regular f)
      Oe.read Oe.write;
    case "OE-STM elastic" (fun f -> Oe.atomic ~mode:Stm_intf.Elastic f)
      Oe.read Oe.write;
    case "View-STM critical" (fun f -> V.atomic f) V.read V.write;
    case "View-STM weak" (fun f -> V.atomic f) V.read_weak V.write ]

let words reads n =
  let before = Gc.minor_words () in
  reads n;
  Gc.minor_words () -. before

let check name reads =
  (* Warm-up grows the per-domain scratch sets to their final size. *)
  reads big;
  reads small;
  let w_small = words reads small in
  let w_big = words reads big in
  Alcotest.(check (float 0.))
    (Printf.sprintf "%s: minor words of %d reads - %d reads" name big small)
    0. (w_big -. w_small)

let gate pick () =
  if !Runtime.sanitizer || Recorder.enabled () then begin
    (* Instrumented reads allocate by design. *)
    print_endline "allocation gate: instrumentation is on, nothing checked";
    Alcotest.skip ()
  end
  else List.iter (fun c -> check c.name (pick c)) (cases ())

let suite =
  [ Alcotest.test_case "read miss allocates nothing" `Quick
      (gate (fun c -> c.misses));
    Alcotest.test_case "write-set hit allocates nothing" `Quick
      (gate (fun c -> c.hits)) ]
