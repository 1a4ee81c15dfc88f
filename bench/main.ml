(* The benchmark harness regenerating the paper's evaluation (Section VII).

   Two parts:

   1. Bechamel micro-benchmarks - one Test.make per (figure, series): the
      single-thread latency of one workload operation for every STM and the
      sequential baseline on each figure's data structure and bulk ratio.
      These give precise per-op costs that the throughput tables cannot.

   2. The figure sweep - multi-domain throughput and abort-rate tables for
      Figures 6(a) through 8(b), in the same format as
      `dune exec bin/figures.exe`.  Defaults are sized to finish in about a
      minute; pass `--skip-sweep` to run only the micro-benchmarks, or use
      bin/figures.exe --full for paper-scale settings. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: micro-benchmarks                                            *)

(* A smaller structure than the sweep (2^10 elements) keeps the per-op
   latency in micro-benchmark range; the relative ordering of the series is
   what matters. *)
let micro_size_exp = 10

let micro_test (figure : Harness.Figures.figure) (module T : Harness.Target.TARGET) =
  let cfg =
    Harness.Workload.paper ~size_exp:micro_size_exp
      ~bulk_ratio:(Harness.Figures.bulk_ratio_of figure) ()
  in
  T.setup cfg;
  let rng = Harness.Prng.create ~seed:7 in
  (* Pre-generate the op stream so generation cost stays out of the
     measured function. *)
  let stream = Array.init 4096 (fun _ -> Harness.Workload.gen_op cfg rng) in
  let idx = ref 0 in
  Test.make
    ~name:(Printf.sprintf "fig%s/%s" (Harness.Figures.short_name figure) T.name)
    (Staged.stage (fun () ->
         let op = stream.(!idx land 4095) in
         incr idx;
         T.run_op op))

let micro_tests figure =
  List.map (micro_test figure)
    (Harness.Target.series_for (Harness.Figures.structure_of figure))

let run_micro () =
  print_endline "## Micro-benchmarks: single-thread latency per operation";
  print_endline "## (one Bechamel test per figure x series; ns per op)";
  let instance = Instance.monotonic_clock in
  let benchmark_cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun figure ->
      Printf.printf "\n%s\n" (Harness.Figures.name figure);
      let tests = micro_tests figure in
      List.iter
        (fun test ->
          let raw = Benchmark.all benchmark_cfg [ instance ] test in
          let results = Analyze.all ols instance raw in
          Hashtbl.iter
            (fun name ols_result ->
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/op\n%!" name est
              | Some ests ->
                Printf.printf "  %-28s %12s\n%!" name
                  (String.concat ","
                     (List.map (Printf.sprintf "%.0f") ests))
              | None -> Printf.printf "  %-28s %12s\n%!" name "n/a")
            results)
        tests)
    Harness.Figures.all

(* ------------------------------------------------------------------ *)
(* Part 2: figure sweep                                                *)

let run_sweep ~figures ~detailed ~json =
  print_endline "\n## Figure sweep: throughput (ops/ms) and abort rate";
  Printf.printf
    "## threads 1,2,4,8 - %d hardware core(s); domains timeslice, so the\n\
     ## absolute scaling is flattened while relative ordering and abort\n\
     ## rates reproduce the paper's shape (see EXPERIMENTS.md)\n%!"
    (Domain.recommended_domain_count ());
  let results =
    List.map
      (fun figure ->
        let r =
          Harness.Figures.run ~size_exp:12 ~threads:[ 1; 2; 4; 8 ]
            ~duration:0.2 ~runs:2 ~seed:42 ~detailed figure
        in
        Format.printf "%a%!" Harness.Figures.pp_result r;
        r)
      figures
  in
  (match json with
  | None -> ()
  | Some file ->
    Harness.Report.write_file file (Harness.Report.report results);
    Printf.printf "## wrote %s\n%!" file);
  results

(* [--compare BASELINE.json]: per-series ops/ms deltas of this run against
   a previously written report.  With [--regress-pct P], exit non-zero if
   any series lost more than P percent; without it, report only. *)
let run_compare ~baseline_file ~regress_pct results =
  match Harness.Compare.load baseline_file with
  | Error msg ->
    Printf.eprintf "## compare: cannot load %s: %s\n" baseline_file msg;
    exit 2
  | Ok baseline ->
    let current = Harness.Report.report results in
    let deltas = Harness.Compare.diff ~baseline ~current in
    Printf.printf "\n## Comparison against %s\n%!" baseline_file;
    if deltas = [] then
      print_endline "## no overlapping (figure, series, threads) points"
    else Format.printf "%a%!" Harness.Compare.pp_table deltas;
    match regress_pct with
    | None -> ()
    | Some threshold_pct ->
      let bad = Harness.Compare.regressions ~threshold_pct deltas in
      if bad <> [] then begin
        Printf.eprintf "## compare: %d series regressed more than %.1f%%\n"
          (List.length bad) threshold_pct;
        List.iter
          (fun d -> Format.eprintf "##   %a@." Harness.Compare.pp_delta d)
          bad;
        exit 1
      end
      else
        Printf.printf "## compare: no series regressed more than %.1f%%\n%!"
          threshold_pct

let () =
  let skip_sweep = ref false and skip_micro = ref false in
  let detailed = ref false and read_heavy = ref false in
  let sanitizer = ref false and recovery = ref false in
  let durability = ref false in
  let json = ref None and compare_file = ref None in
  let regress_pct = ref None and retry_cap = ref None in
  let faults = ref None and lease_ns = ref None in
  let wal_path = ref None and wal_sync_every = ref None in
  let specs =
    [ ("--skip-sweep", Arg.Set skip_sweep, " run only the micro-benchmarks");
      ("--skip-micro", Arg.Set skip_micro, " run only the figure sweep");
      (* [--detailed] leaves the histogram recorders on for the
         micro-benchmarks too: comparing ns/op with and without it
         measures the cost of the metrics layer itself (it should be
         within noise when off — the flag's whole point). *)
      ("--detailed", Arg.Set detailed, " keep the histogram recorders on");
      (* [--read-heavy] swaps the sweep to the read-dominated linked-list
         series (6a, 6b, 6r) — the workloads most sensitive to per-read
         write-set lookup and read-set validation costs.  CI gates this
         sweep against the committed baseline. *)
      ("--read-heavy", Arg.Set read_heavy, " sweep figures 6a, 6b and 6r");
      ( "--json",
        Arg.String (fun v -> json := Some v),
        "FILE write a JSON report" );
      ( "--compare",
        Arg.String (fun v -> compare_file := Some v),
        "FILE diff the sweep against a baseline report" );
      ( "--regress-pct",
        Arg.Float (fun v -> regress_pct := Some v),
        "P with --compare, fail if a series lost more than P percent" );
      ("--retry-cap", Arg.Int (fun v -> retry_cap := Some v), "N retry cap");
      ( "--faults",
        Arg.String (fun v -> faults := Some v),
        "SPEC inject faults" );
      ("--sanitizer", Arg.Set sanitizer, " run with the sanitizer on");
      ("--recovery", Arg.Set recovery, " enable orphan-lock recovery");
      ("--lease-ns", Arg.Int (fun v -> lease_ns := Some v), "N recovery lease");
      ("--durability", Arg.Set durability, " open a write-ahead log");
      ("--wal-path", Arg.String (fun v -> wal_path := Some v), "PATH WAL file");
      ( "--wal-sync-every",
        Arg.Int (fun v -> wal_sync_every := Some v),
        "N commits per fsync" ) ]
  in
  let usage = "usage: bench/main.exe [OPTION]..." in
  (* Unknown flags and stray arguments exit 2 with the usage, so a
     mistyped knob never silently measures the defaults. *)
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let skip_sweep = !skip_sweep and skip_micro = !skip_micro in
  let detailed = !detailed and read_heavy = !read_heavy in
  let json = !json and compare_file = !compare_file in
  let regress_pct = !regress_pct in
  (* Robustness knobs: retry cap and fault injection.  They configure
     process-wide state before any measurement starts and are recorded in
     the JSON report's "config" object. *)
  Option.iter (fun n -> Stm_core.Runtime.retry_cap := n) !retry_cap;
  Option.iter
    (fun spec -> Stm_core.Faults.enable (Stm_core.Faults.parse spec))
    !faults;
  (* [--sanitizer] turns Txsan on for the whole run: the benchmark doubles
     as a long soak under real contention.  Numbers are not comparable to
     clean runs (see EXPERIMENTS.md); the run fails on any violation. *)
  let sanitizer = !sanitizer in
  if sanitizer then begin
    Stm_core.Sanitizer.enable ();
    print_endline "## sanitizer on: numbers are NOT comparable to clean runs"
  end;
  (* [--recovery] soaks the benchmark with the orphan-lock recovery layer
     armed (registry publishing, heartbeats, steal checks on contended
     reads and lock acquisitions); [--lease-ns] tunes the staleness
     lease.  With no crashing domains it should steal nothing — running
     it under the sanitizer asserts exactly that. *)
  if !recovery then begin
    let lease_ns =
      Option.value !lease_ns ~default:Stm_core.Recovery.default_lease_ns
    in
    Stm_core.Recovery.enable ~lease_ns ();
    Printf.printf "## recovery on: lease %dns\n%!" lease_ns
  end;
  (* [--durability] opens a write-ahead log for the whole run: the sweep
     then measures the per-commit durability-hook overhead (every
     committed write set is scanned against the persistent-id registry).
     The benchmark structures are deliberately not registered, so no
     records are appended — the gate is on the hook's fixed cost, not on
     fsync latency (see EXPERIMENTS.md).  [--wal-path] and
     [--wal-sync-every] configure the log; the JSON report's
     "durability" object records the configuration and counters. *)
  if !durability then begin
    let path =
      Option.value !wal_path
        ~default:
          (Filename.concat
             (Filename.get_temp_dir_name ())
             (Printf.sprintf "bench-%d.wal" (Unix.getpid ())))
    in
    let sync_every = Option.value !wal_sync_every ~default:1 in
    Persist.enable ~sync_every ~path ();
    Printf.printf "## durability on: wal=%s sync_every=%d\n%!" path
      sync_every
  end;
  if detailed then Stm_core.Stats.set_detailed true;
  if not skip_micro then run_micro ();
  if not skip_sweep then begin
    let figures =
      if read_heavy then Harness.Figures.read_heavy else Harness.Figures.all
    in
    let results = run_sweep ~figures ~detailed:(detailed || json <> None) ~json in
    Option.iter
      (fun baseline_file -> run_compare ~baseline_file ~regress_pct results)
      compare_file
  end
  else if compare_file <> None then
    prerr_endline "## compare: needs the sweep; drop --skip-sweep";
  if sanitizer then begin
    let n = Stm_core.Sanitizer.violation_count () in
    if n > 0 then begin
      Printf.eprintf "## sanitizer: %d violation(s)\n" n;
      List.iter
        (fun v -> Format.eprintf "##   %a@." Stm_core.Sanitizer.pp_violation v)
        (Stm_core.Sanitizer.violations ());
      exit 1
    end
    else print_endline "## sanitizer: clean"
  end
