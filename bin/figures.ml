(* CLI regenerating the paper's evaluation figures.

   Examples:
     dune exec bin/figures.exe -- --figure 6a
     dune exec bin/figures.exe -- --figure all --threads 1,2,4,8,16 \
       --duration 1.0 --runs 3
     dune exec bin/figures.exe -- --figure 6b --full        # paper settings
     dune exec bin/figures.exe -- --figure 8a --csv *)

open Cmdliner

let parse_threads s =
  let parts = String.split_on_char ',' s in
  let ints = List.filter_map int_of_string_opt parts in
  if parts <> [] && List.length ints = List.length parts then Ok ints
  else Error (`Msg "expected a comma-separated list of integers")

let threads_conv = Arg.conv (parse_threads, fun ppf l ->
    Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int l)))

let run_figures figure_str threads duration runs size_exp seed full csv json
    retry_cap faults sanitizer recovery lease_ns =
  (* Robustness knobs first: they configure process-wide state that the
     sweep reads, and the JSON report records them in its "config". *)
  Option.iter (fun n -> Stm_core.Runtime.retry_cap := n) retry_cap;
  (match faults with
  | None -> ()
  | Some spec ->
    (match Stm_core.Faults.parse spec with
    | c -> Stm_core.Faults.enable c
    | exception Invalid_argument m ->
      Printf.eprintf "%s\n" m;
      exit 2));
  if sanitizer then begin
    Stm_core.Sanitizer.enable ();
    Printf.printf
      "# sanitizer on: numbers are NOT comparable to clean runs\n%!"
  end;
  if recovery then begin
    Stm_core.Recovery.enable ~lease_ns ();
    Printf.printf "# recovery on: lease %dns\n%!" lease_ns
  end;
  let figures =
    if figure_str = "all" then Harness.Figures.all
    else
      match Harness.Figures.of_string figure_str with
      | Some f -> [ f ]
      | None ->
        Printf.eprintf "unknown figure %S (use 6a 6b 6r 7a 7b 8a 8b or all)\n"
          figure_str;
        exit 2
  in
  let threads, duration, runs =
    if full then ([ 1; 2; 4; 8; 16; 32; 64 ], 10.0, 10)
    else (threads, duration, runs)
  in
  (* Latency/footprint histograms are only paid for when they will be
     reported; the plain tables match the paper's counters-only runs. *)
  let detailed = json <> None in
  Printf.printf
    "# Composing Relaxed Transactions - evaluation reproduction\n\
     # threads axis: %s; duration/point: %.2fs; runs/point: %d; 2^%d elements\n\
     # host: %d hardware core(s) - see EXPERIMENTS.md for the simulation note\n%!"
    (String.concat "," (List.map string_of_int threads))
    duration runs size_exp
    (Domain.recommended_domain_count ());
  let results =
    List.map
      (fun f ->
        let r =
          Harness.Figures.run ~size_exp ~threads ~duration ~runs ~seed
            ~detailed f
        in
        if csv then Format.printf "%a%!" Harness.Figures.pp_csv r
        else Format.printf "%a%!" Harness.Figures.pp_result r;
        r)
      figures
  in
  (match json with
  | None -> ()
  | Some file ->
    Harness.Report.write_file file (Harness.Report.report results);
    Printf.printf "# wrote %s\n%!" file);
  if sanitizer then begin
    let n = Stm_core.Sanitizer.violation_count () in
    if n > 0 then begin
      Printf.eprintf "# sanitizer: %d violation(s)\n" n;
      List.iter
        (fun v -> Format.eprintf "#   %a@." Stm_core.Sanitizer.pp_violation v)
        (Stm_core.Sanitizer.violations ());
      exit 1
    end
    else Printf.printf "# sanitizer: clean\n%!"
  end;
  0

let cmd =
  let figure =
    Arg.(value & opt string "all" & info [ "figure"; "f" ] ~docv:"FIG"
           ~doc:"Which figure to regenerate: 6a, 6b, 6r (read-heavy \
                 companion), 7a, 7b, 8a, 8b or all.")
  in
  let threads =
    Arg.(value & opt threads_conv [ 1; 2; 4; 8 ] & info [ "threads"; "t" ]
           ~docv:"LIST" ~doc:"Comma-separated thread counts.")
  in
  let duration =
    Arg.(value & opt float 0.2 & info [ "duration"; "d" ] ~docv:"SECONDS"
           ~doc:"Measured duration per point.")
  in
  let runs =
    Arg.(value & opt int 1 & info [ "runs"; "r" ] ~docv:"N"
           ~doc:"Runs averaged per point.")
  in
  let size_exp =
    Arg.(value & opt int 12 & info [ "size-exp" ] ~docv:"K"
           ~doc:"log2 of the initial structure size (paper: 12).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload seed (runs are deterministic given a seed).")
  in
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"Paper settings: threads 1..64, 10 runs of 10s per point.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of tables.")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Additionally write a machine-readable JSON report \
                 (schema in EXPERIMENTS.md) to $(docv), e.g. \
                 BENCH_6a.json.  Enables detailed metrics (latency \
                 percentiles, rw-set sizes, retry depths).")
  in
  let retry_cap =
    Arg.(value & opt (some int) None & info [ "retry-cap" ] ~docv:"N"
           ~doc:"Optimistic retries before escalating to the \
                 serial-irrevocable fallback (default 64).")
  in
  let faults =
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Enable fault injection, e.g. \
                 seed=7,abort=0.01,lock=0.05,validate=0.05,delay=0.01. \
                 For robustness experiments only - numbers measured with \
                 faults on are not comparable to clean runs.")
  in
  let sanitizer =
    Arg.(value & flag & info [ "sanitizer" ]
           ~doc:"Enable the transactional sanitizer (Txsan): checks vlock \
                 discipline, opacity at every read, escape hatches and \
                 abort swallowing while the benchmark runs.  Adds a \
                 \"sanitizer\" object to the JSON report and exits 1 on \
                 any violation.  Numbers are not comparable to clean runs.")
  in
  let recovery =
    Arg.(value & flag & info [ "recovery" ]
           ~doc:"Enable crash-tolerant orphan-lock recovery (in-flight \
                 registry, lease-based reclamation).  Adds a \"recovery\" \
                 object to the JSON report.")
  in
  let lease_ns =
    Arg.(value
         & opt int Stm_core.Recovery.default_lease_ns
         & info [ "lease-ns" ] ~docv:"NS"
             ~doc:"Heartbeat lease in nanoseconds before a lock owner is \
                   considered stale and its locks reclaimable.")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the figures of Composing Relaxed Transactions (IPDPS'13)")
    Term.(const run_figures $ figure $ threads $ duration $ runs $ size_exp
          $ seed $ full $ csv $ json $ retry_cap $ faults $ sanitizer
          $ recovery $ lease_ns)

let () = exit (Cmd.eval' cmd)
