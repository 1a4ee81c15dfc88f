(* TXSAN=1 runs the whole suite with the transactional sanitizer on; the
   final gate suite then asserts the run produced zero violations (the
   deliberate-violation tests in Test_sanitizer reset behind themselves). *)
let txsan = Sys.getenv_opt "TXSAN" <> None

let () = if txsan then Stm_core.Sanitizer.enable ()

let txsan_gate =
  [ Alcotest.test_case "zero violations over the whole run" `Quick
      (fun () ->
        List.iter
          (fun v ->
            Format.printf "%a@." Stm_core.Sanitizer.pp_violation v)
          (Stm_core.Sanitizer.violations ());
        Alcotest.(check int) "violations" 0
          (Stm_core.Sanitizer.violation_count ())) ]

let () =
  Alcotest.run "composing_relaxed_transactions"
    ([ ("vlock", Test_vlock.suite);
       ("vec", Test_vec.suite);
       ("rwsets", Test_rwsets.suite);
       ("alloc", Test_alloc.suite);
       ("stats", Test_stats.suite);
       ("theory", Test_theory.suite);
       ("schedsim", Test_schedsim.suite);
       ("composition", Test_composition.suite);
       ("elastic", Test_elastic.suite);
       ("convert", Test_convert.suite);
       ("boosting", Test_boosting.suite);
       ("ablation", Test_ablation.suite);
       ("theorems", Test_theorems.suite);
       ("dpor", Test_dpor.suite);
       ("clock", Test_clock.suite);
       ("linearizability", Test_linearizability.suite);
       ("tx_queue_map", Test_tx_queue_map.suite);
       (* The harness suite compares throughput across wall-clock windows,
          so it runs after the exploration suites: by then [dune runtest]'s
          other test binary, which starts alongside this one and loads both
          cores, has finished. *)
       ("harness", Test_harness.suite);
       ("backoff_retry", Test_backoff_retry.suite);
       ("faults", Test_faults.suite);
       ("recovery", Test_recovery.suite);
       ("persist", Test_persist.suite);
       ("exception-safety", Test_exception_safety.suite);
       ("frame", Test_frame.suite);
       ("chaos", Test_chaos.suite);
       ("sanitizer", Test_sanitizer.suite);
       ("txlint", Test_txlint.suite);
       ("viewstm", Test_viewstm.suite);
       ("stm:View-STM", Test_viewstm.battery_suite) ]
    @ Test_stm_semantics.suites @ Test_eec.suites @ Test_collections.suites
    @ if txsan then [ ("txsan-gate", txsan_gate) ] else [])
