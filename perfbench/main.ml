(* Command line of the repository benchmark; see README.md. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let dir = ref ".perfbench" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME list-6a | hash-short | bank-durable");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S measuring time of the run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--dir", Arg.Set_string dir, "DIR where the WAL and the Chrome trace are written") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  match Perfbench.Workloads.find !workload ~dir:!dir ~seed:!seed with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "; expected one of " ^ String.concat ", " Perfbench.Workloads.names);
    exit 2
  | Some w ->
    let r = Perfbench.Workloads.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir:!dir in
    List.iter print_endline (Perfbench.Bench.host_lines ());
    Printf.printf "workload: %s, seed %d, %d s, %s\n" !workload !seed !seconds
      (if !trace = 1 then "traced (per-layer metrics)" else "untraced (end-to-end metrics)");
    List.iter print_endline (Perfbench.Workloads.notes w);
    List.iter print_endline r.lines;
    List.iter (fun m -> print_endline (Perfbench.Bench.summary_line m)) r.metrics;
    List.iter (fun e -> print_endline ("CORRECTNESS GATE FAILED: " ^ e)) r.errors;
    print_endline (Perfbench.Bench.json_line r);
    if r.errors <> [] then exit 1
