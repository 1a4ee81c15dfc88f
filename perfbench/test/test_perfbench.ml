(* Tests of the benchmark itself.

   1. A tiny pass of each workload, untraced and traced, emits exactly the
      metrics BENCHMARK.json names, each with its declared unit and a
      finite value, and passes every correctness gate.
   2. Negative controls: each gate fires on a deliberately corrupted
      result, both as a pure function and through a workload instance. *)

open Perfbench
module R = Harness.Report
module W = Harness.Workload

let dir =
  let d = Filename.temp_dir "perfbench-test" "" in
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d);
  d

(* (name, unit) lists of BENCHMARK.json, found from the test's cwd
   inside the build tree or from the repository root. *)
let declared key =
  let path =
    List.find Sys.file_exists [ "../../BENCHMARK.json"; "BENCHMARK.json" ]
  in
  let json =
    match R.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  match R.member key json with
  | Some (R.List l) ->
    List.map
      (fun m ->
        match (R.member "name" m, R.member "unit" m) with
        | Some (R.Str n), Some (R.Str u) -> (n, u)
        | _ -> Alcotest.fail "metric without name/unit")
      l
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let workload name =
  match Workloads.make ~div:200 name ~dir ~seed:7 with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

let tiny_pass name ~trace () =
  let r = Workloads.run ~div:200 (workload name) ~seed:7 ~seconds:0 ~trace ~dir in
  Alcotest.(check (list string)) "no gate failed" [] r.errors;
  Alcotest.(check int) "no op failed" 0 r.failed;
  Alcotest.(check bool) "ops attempted" true (r.attempted > 0);
  let emitted = List.map (fun (m : Bench.metric) -> (m.name, m.unit_)) r.metrics in
  let want = declared (if trace then "per_layer" else "end_to_end") in
  Alcotest.(check (list (pair string string)))
    "metrics and units as declared" (List.sort compare want) (List.sort compare emitted);
  List.iter
    (fun (m : Bench.metric) ->
      if not (Float.is_finite m.value) then Alcotest.failf "%s is not finite" m.name)
    r.metrics;
  let line = Bench.json_line r in
  match R.of_string line with
  | Ok j -> Alcotest.(check bool) "result line has metrics" true (R.member "metrics" j <> None)
  | Error e -> Alcotest.failf "result line is not JSON: %s" e

(* The gate fired, and it is the gate whose message contains [expect]. *)
let is_error ?(expect = "") name = function
  | Ok () -> Alcotest.failf "%s: gate did not fire" name
  | Error msg ->
    let n = String.length expect and m = String.length msg in
    let rec found i = i + n <= m && (String.sub msg i n = expect || found (i + 1)) in
    if not (found 0) then Alcotest.failf "%s: wrong gate fired: %s" name msg

let is_ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let pure_gates () =
  is_ok "sorted" (Gates.sorted_unique [ 1; 2; 5 ]);
  is_error "unsorted" (Gates.sorted_unique [ 1; 5; 2 ]);
  is_error "duplicate" (Gates.sorted_unique [ 1; 2; 2 ]);
  is_ok "replay" (Gates.replay_equal ~expected:[ 1; 2 ] ~actual:[ 1; 2 ]);
  is_error "dropped key" (Gates.replay_equal ~expected:[ 1; 2; 3 ] ~actual:[ 1; 3 ]);
  let touched = [| false; true; false; false |] in
  is_ok "membership"
    (Gates.untouched_membership ~range:4 ~initial:[ 0; 2 ] ~touched ~actual:[ 0; 1; 2 ]);
  is_error "untouched key dropped"
    (Gates.untouched_membership ~range:4 ~initial:[ 0; 2 ] ~touched ~actual:[ 0; 1 ]);
  is_ok "conserved" (Gates.conserved ~expected:10 [| 4; 6 |]);
  is_error "unbalanced" (Gates.conserved ~expected:10 [| 4; 7 |]);
  is_ok "acked" (Gates.all_acked ~acked:5 ~appended:5);
  is_error "unacked" (Gates.all_acked ~acked:4 ~appended:5);
  is_ok "recovered" (Gates.recovered_equal ~live:[| 1; 2 |] ~recovered:[| 1; 2 |]);
  is_error "recovery lost a write" (Gates.recovered_equal ~live:[| 1; 3 |] ~recovered:[| 1; 2 |])

(* A key of the preload that no op of [streams] touches. *)
let untouched_key streams =
  let t = Sets.touched Sets.list_6a streams in
  let rec go k = if t.(k) then go (k + 2) else k in
  go 0

(* Remove an untouched preloaded key behind the workload's back: the
   one-domain replay gate and the two-domain membership gate both fire. *)
let dropped_key domains () =
  let streams = Sets.gen Sets.list_6a ~seed:3 ~domains ~n:50 in
  List.iter
    (fun e ->
      let inst = Sets.setup Sets.list_6a e ~traced:false in
      Array.iter (Array.iter inst.Runner.run_op) streams;
      is_ok "clean run" (inst.check streams);
      inst.run_op (W.Remove (untouched_key streams));
      is_error "dropped key"
        ~expect:(if domains = 1 then "sequential replay" else "untouched key")
        (inst.check streams))
    Runner.engines

let bank_inst e =
  let w = Bank.workload ~dir ~seed:5 ~ops_per_domain:20 in
  w.stage ();
  (w, w.setup e ~traced:false)

(* A transfer whose source is its destination credits without debiting. *)
let unbalanced_transfer () =
  List.iter
    (fun e ->
      let w, inst = bank_inst e in
      let streams = w.gen ~seed:5 ~domains:1 ~n:20 in
      Array.iter inst.Runner.run_op streams.(0);
      inst.run_op { Bank.src = 3; dst = 3 };
      is_error "unbalanced transfer" ~expect:"not conserved" (inst.check streams);
      inst.close ())
    Runner.engines

(* Every fsync fails (injected): no record is ever acknowledged. *)
let unacked_commits () =
  let w, inst = bank_inst Runner.Oe in
  let streams = w.gen ~seed:5 ~domains:1 ~n:20 in
  Stm_core.Faults.enable { Stm_core.Faults.default with fsync_fail = 1.0 };
  Fun.protect ~finally:Stm_core.Faults.disable (fun () ->
      Array.iter inst.Runner.run_op streams.(0);
      is_error "unacked commits" ~expect:"acked_records" (inst.check streams));
  inst.close ()

let () =
  let pass name trace =
    Alcotest.test_case (Printf.sprintf "%s %s" name (if trace then "traced" else "untraced")) `Quick
      (tiny_pass name ~trace)
  in
  Alcotest.run "perfbench"
    [ ("tiny pass", List.concat_map (fun n -> [ pass n false; pass n true ]) Workloads.names);
      ( "gates",
        [ Alcotest.test_case "pure gates on corrupted results" `Quick pure_gates;
          Alcotest.test_case "dropped key, one domain" `Quick (dropped_key 1);
          Alcotest.test_case "dropped key, two streams" `Quick (dropped_key 2);
          Alcotest.test_case "unbalanced transfer" `Quick unbalanced_transfer;
          Alcotest.test_case "unacknowledged commits" `Quick unacked_commits ] ) ]
