(* The benchmark's three workloads and their batch sizes. *)

type t = W : 'op Runner.workload -> t

let names = [ "list-6a"; "hash-short"; "bank-durable" ]

(* Ops per domain in one batch, sized so a batch takes 0.1-0.5 s on a
   2-core host; [div] shrinks them for the tests. *)
let make ?(div = 1) name ~dir ~seed =
  let ops n = max 4 (n / div) in
  match name with
  | "list-6a" -> Some (W (Sets.workload ~name ~ops_per_domain:(ops 800) Sets.list_6a))
  | "hash-short" -> Some (W (Sets.workload ~name ~ops_per_domain:(ops 60_000) Sets.hash_short))
  | "bank-durable" -> Some (W (Bank.workload ~dir ~seed ~ops_per_domain:(ops 1000)))
  | _ -> None

let find = make ~div:1
let notes (W w) = w.notes

let run ?(div = 1) (W w) ~seed ~seconds ~trace ~dir =
  if not trace then Bench.untraced w ~seed ~seconds ~min_rounds:3
  else
    let probe name = Option.get (make ~div name ~dir ~seed) in
    let probes : Bench.probes =
      if w.name = "bank-durable" then
        { eec = Some (fun t -> let (W p) = probe "hash-short" in fst (Bench.layer_passes t p ~seed ~seconds:0 ~min_rounds:1));
          persist = None }
      else
        { eec = None;
          persist = Some (fun t -> let (W p) = probe "bank-durable" in ignore (Bench.layer_passes t p ~seed ~seconds:0 ~min_rounds:1)) }
    in
    let trace_path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed) in
    Bench.traced w ~seed ~seconds ~trace_path ~probes
