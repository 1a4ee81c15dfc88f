(* One benchmark run: the untraced run that gives the end-to-end metrics,
   and the traced run that gives the per-layer ones. *)

open Runner
module Stats = Stm_core.Stats

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : float list;  (** per-batch values the value summarises *)
}

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : string list;  (** correctness-gate failures *)
  lines : string list;  (** the human-readable report *)
}

let metric ?(samples = []) name unit_ value = { name; value; unit_; samples }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; errors = [] }
let stats_of = function Oe -> Oestm.Oe.stats | Tl2 -> Classic_stm.Tl2.stats
let per_ms ops ns = float_of_int ops /. (float_of_int ns /. 1e6)
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let lat_us a p = fi (Stat.percentile_sorted a p) /. 1e3

(* Stage inputs, collect, set up (timed), run [f] on the instance, then
   apply the correctness gates.  A failed gate counts every op of the
   batch as failed. *)
let with_instance t w e ~traced streams f =
  w.stage ();
  Gc.full_major ();
  let t0 = Stat.now_ns () in
  let inst = w.setup e ~traced in
  let setup_ns = Stat.now_ns () - t0 in
  Fun.protect ~finally:inst.close (fun () ->
      let (b : batch), extra = f inst in
      t.attempted <- t.attempted + b.ops;
      (match inst.check streams with
       | Ok () -> t.failed <- t.failed + b.failed
       | Error msg ->
         t.failed <- t.failed + b.ops;
         t.errors <-
           Printf.sprintf "%s/%s/d%d: %s" w.name (engine_name e) (Array.length streams) msg
           :: t.errors);
      (setup_ns, b, extra))

let sorted_latencies (b : batch) =
  let a = Array.concat (Array.to_list b.lat) in
  Array.sort Int.compare a;
  a

let host_lines () =
  [ Printf.sprintf "host: %s, %d recommended domains, OCaml %s, %d-bit words"
      (Unix.gethostname ()) (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size;
    Printf.sprintf "commit: %s"
      (match Sys.getenv_opt "PERFBENCH_COMMIT" with
       | Some c when c <> "" -> c
       | _ -> "unknown (set PERFBENCH_COMMIT)") ]

let summary_line m =
  match m.samples with
  | [] | [ _ ] -> Printf.sprintf "  %-34s %14.6g %s" m.name m.value m.unit_
  | s ->
    let q1, q2, q3 = Stat.quartiles s in
    Printf.sprintf "  %-34s %14.6g %-5s  samples: median %.6g q1 %.6g q3 %.6g n=%d [%s]" m.name
      m.value m.unit_ q2 q1 q3 (List.length s)
      (String.concat " " (List.map (Printf.sprintf "%.4g") s))

(* Rounds until [seconds] have passed and at least [min_rounds] ran. *)
let rounds ~seconds ~min_rounds f =
  let t_end = Stat.now_ns () + (seconds * 1_000_000_000) in
  let n = ref 0 in
  while !n < min_rounds || Stat.now_ns () < t_end do
    f !n;
    incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* End-to-end (untraced) run                                            *)

let words_ops = 3200

(* Rounds of the four series (engine x 1 or 2 domains), interleaved so
   host drift spreads over all of them.  Every batch is a fresh set-up of
   the same pre-generated streams, so a batch is a fixed amount of work. *)
let untraced (w : 'op workload) ~seed ~seconds ~min_rounds =
  let t = tally () in
  let n = w.ops_per_domain in
  let d1 = w.gen ~seed ~domains:1 ~n and d2 = w.gen ~seed ~domains:2 ~n in
  (* (value, steal share of its batch), newest first *)
  let samples = Hashtbl.create 16 in
  let push ?(steal = 0.) k v =
    Hashtbl.replace samples k ((v, steal) :: Option.value ~default:[] (Hashtbl.find_opt samples k))
  in
  let get_pairs k = List.rev (Option.value ~default:[] (Hashtbl.find_opt samples k)) in
  let get k = List.map fst (get_pairs k) in
  (* Allocation depends on tvar ids (through the write-set index), and ids
     on how many tvars earlier batches created, which two-domain batches
     leave to the interleaving.  So the words are measured first, on one
     domain only: per engine a warm-up batch, then a measured one over a
     stream of at least [words_ops] ops (whose prefix is the warm-up
     stream), long enough that the figure varies little between seeds. *)
  let ws = w.gen ~seed ~domains:1 ~n:(max n words_ops) in
  let words =
    List.map
      (fun e ->
        let measure s =
          let _, b, words =
            with_instance t w e ~traced:false s (fun inst ->
                let w0 = Gc.minor_words () in
                let b = run_batch inst s in
                (b, Gc.minor_words () -. w0))
          in
          words /. fi b.ops
        in
        ignore (measure d1);
        (e, measure ws))
      engines
  in
  let batch ?worker e (d, s) =
    let setup_ns, b, () =
      with_instance t w e ~traced:false s (fun inst -> (run_batch ?worker inst s, ()))
    in
    push "setup_s" (fi setup_ns /. 1e9);
    let en = engine_name e in
    let steal = b.steal in
    push ~steal (Printf.sprintf "ops_per_ms.%s.d%d" en d) (per_ms b.ops b.elapsed_ns);
    push "steal" steal;
    if d = 2 then begin
      let s = sorted_latencies b in
      push ~steal ("lat_p50_us." ^ en ^ ".d2") (lat_us s 50.);
      push ~steal ("lat_p90_us." ^ en ^ ".d2") (lat_us s 90.);
      push ("lat_samples." ^ en) (fi (Array.length s))
    end
  in
  let nrounds =
    rounds ~seconds ~min_rounds (fun _ ->
        List.iter (fun e -> batch e (1, d1)) engines;
        with_worker (fun worker -> List.iter (fun e -> batch ~worker e (2, d2)) engines))
  in
  (* Batch figures: the median over the batches of a series during which
     the hypervisor stole no more CPU time than in its median batch.  On a shared VM steal
     came in spells of seconds, up to 17 % of all CPU time, and slowed the
     batches it hit by up to 40 %; the program did not change. *)
  let med k unit_ =
    metric ~samples:(get k) k unit_ (Stat.median (Stat.least_stolen_half (get_pairs k)))
  in
  let per_engine e =
    let en = engine_name e in
    [ med ("ops_per_ms." ^ en ^ ".d1") "ops/ms";
      med ("ops_per_ms." ^ en ^ ".d2") "ops/ms";
      (* Percentiles of each batch's op latencies (at least 1600 per
         batch), then the median over batches: one stalled batch does not
         move the figure.  p90, not p99: on a 2-vCPU VM a host deschedule
         of a few ms lands in the top 1 % of ops, and p99 then spread
         0.2-0.8 between runs of the same code. *)
      med ("lat_p50_us." ^ en ^ ".d2") "us";
      med ("lat_p90_us." ^ en ^ ".d2") "us";
      metric ("minor_words_per_op." ^ en) "words" (List.assoc e words) ]
  in
  let gc = Gc.quick_stat () in
  let e2e =
    List.concat_map per_engine engines
    @ [ metric "peak_heap_mb" "MB" (fi (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
        metric ~samples:(get "setup_s") "setup_s" "s" (Stat.median (get "setup_s"));
        metric "ok_op_share" "share" (ratio (fi (t.attempted - t.failed)) (fi t.attempted)) ]
  in
  let lat_counts =
    List.map
      (fun e ->
        let c = get ("lat_samples." ^ engine_name e) in
        Printf.sprintf "latency samples at d2 (%s): %.0f in %d batches" (engine_name e)
          (List.fold_left ( +. ) 0. c) (List.length c))
      engines
  in
  let steal = get "steal" in
  let lines =
    Printf.sprintf "rounds: %d of 4 batches, %d ops per domain per batch" nrounds n
    :: Printf.sprintf
         "hypervisor steal per batch: median %.3f, max %.3f of all CPU time; ops_per_ms and lat_* \
          take the median over each series' batches with at most its median steal"
         (Stat.median steal) (List.fold_left Float.max 0. steal)
    :: Printf.sprintf "failed_op_share: %.6g (%d of %d ops)" (ratio (fi t.failed) (fi t.attempted)) t.failed t.attempted
    :: lat_counts
  in
  { metrics = e2e; attempted = t.attempted; failed = t.failed; errors = List.rev t.errors; lines }

(* ------------------------------------------------------------------ *)
(* Traced (per-layer) run                                               *)

type layer = {
  d1 : Shim.acc;  (** traced one-domain passes: per-access and commit costs *)
  d2 : Shim.acc;  (** traced two-domain passes: aborts, retries, op latency *)
  mutable snap1 : Stats.snapshot;
  mutable snap2 : Stats.snapshot;
  mutable plain_ns : int;  (** untraced two-domain passes, same streams *)
  mutable traced_ns : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable promoted : float;
  mutable gc_ops : int;
  mutable trace : Shim.span list;  (** first traced two-domain pass *)
}

let new_layer () =
  { d1 = Shim.acc (); d2 = Shim.acc (); snap1 = Stats.empty_snapshot ();
    snap2 = Stats.empty_snapshot (); plain_ns = 0; traced_ns = 0; minor_gcs = 0;
    major_gcs = 0; promoted = 0.; gc_ops = 0; trace = [] }

(* Per round and engine: a traced one-domain pass, then, with the worker
   domain up, an untraced two-domain pass (the overhead baseline and the
   GC rows, which tracing's own allocation would skew) and a traced
   two-domain pass.  The detailed engine stats are on in traced passes. *)
let layer_passes t (w : 'op workload) ~seed ~seconds ~min_rounds =
  let n = w.ops_per_domain in
  let d1 = w.gen ~seed ~domains:1 ~n and d2 = w.gen ~seed ~domains:2 ~n in
  let layers = List.map (fun e -> (e, new_layer ())) engines in
  let wrap op f = Shim.with_op (w.cls op) f in
  let traced_pass ?worker e streams acc =
    ignore (Shim.collect ());
    let st = stats_of e in
    let _, b, (snap, spans) =
      with_instance t w e ~traced:true streams (fun inst ->
          Stats.reset st;
          Stats.set_detailed true;
          let b =
            Fun.protect ~finally:(fun () -> Stats.set_detailed false) (fun () ->
                run_batch ~wrap ?worker inst streams)
          in
          (b, (Stats.snapshot st, Shim.collect ())))
    in
    Shim.summarize acc spans;
    (b, snap, spans)
  in
  let n =
    rounds ~seconds ~min_rounds (fun r ->
        List.iter
          (fun (e, l) ->
            let _, s1, _ = traced_pass e d1 l.d1 in
            l.snap1 <- Stats.add l.snap1 s1)
          layers;
        with_worker (fun worker ->
            List.iter
              (fun (e, l) ->
                let _, b, (g0, g1) =
                  with_instance t w e ~traced:false d2 (fun inst ->
                      let g0 = Gc.quick_stat () in
                      let b = run_batch ~worker inst d2 in
                      (b, (g0, Gc.quick_stat ())))
                in
                l.plain_ns <- l.plain_ns + b.elapsed_ns;
                l.minor_gcs <- l.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
                l.major_gcs <- l.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
                l.promoted <- l.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
                l.gc_ops <- l.gc_ops + b.ops;
                let b2, s2, spans = traced_pass ~worker e d2 l.d2 in
                l.snap2 <- Stats.add l.snap2 s2;
                l.traced_ns <- l.traced_ns + b2.elapsed_ns;
                if r = 0 then l.trace <- spans)
              layers))
  in
  (layers, n)

(* Median over [reps] repetitions of [iters] calls of [f], in ns per call. *)
let calibrate ?(reps = 5) ~iters f =
  Stat.median
    (List.init reps (fun _ ->
         let t0 = Stat.now_ns () in
         for _ = 1 to iters do f () done;
         fi (Stat.now_ns () - t0) /. fi iters))

let clock_ns () = calibrate ~iters:200_000 (fun () -> ignore (Sys.opaque_identity (Stat.now_ns ())))

let read_consistent_ns () =
  let tvs = Array.init 4096 Stm_core.Tvar.make in
  let sum = ref 0 in
  let ns =
    calibrate ~iters:64 (fun () ->
        Array.iter (fun tv -> let _, v = Stm_core.Tvar.read_consistent tv in sum := !sum + v) tvs)
  in
  ignore (Sys.opaque_identity !sum);
  ns /. 4096.

let empty_tx_ns = function
  | Oe -> calibrate ~iters:100_000 (fun () -> Oestm.Oe.atomic (fun _ -> ()))
  | Tl2 -> calibrate ~iters:100_000 (fun () -> Classic_stm.Tl2.atomic (fun _ -> ()))

(* The one-domain stream on the sequential structure, repeated to at
   least 20 ms per sample. *)
let seq_ops_per_ms (w : 'op workload) ~seed =
  let s = (w.gen ~seed ~domains:1 ~n:w.ops_per_domain).(0) in
  Stat.median
    (List.init 3 (fun _ ->
         let t0 = Stat.now_ns () and ops = ref 0 in
         while Stat.now_ns () - t0 < 20_000_000 do
           w.seq_run s;
           ops := !ops + Array.length s
         done;
         per_ms !ops (Stat.now_ns () - t0)))

(* Rows of a layer the workload does not exercise come from a probe: a
   small run of another workload through the same code. *)
type probes = {
  eec : (tally -> (engine * layer) list) option;  (** when the workload bypasses e.e.c *)
  persist : (tally -> unit) option;  (** when the workload has no WAL *)
}

let trace_cap = 20_000

let traced (w : 'op workload) ~seed ~seconds ~trace_path ~probes =
  let t = tally () in
  Stats.reset_durable_counters ();
  Bank.reset_figures ();
  let clock = clock_ns () in
  let rc = read_consistent_ns () in
  let empty = List.map (fun e -> (e, empty_tx_ns e)) engines in
  let seq = seq_ops_per_ms w ~seed in
  let layers, nrounds = layer_passes t w ~seed ~seconds ~min_rounds:1 in
  let eec_layers = match probes.eec with Some p -> p t | None -> layers in
  Option.iter (fun p -> p t) probes.persist;
  let dc = Stats.durable_counters () in
  let groups =
    List.map
      (fun (e, l) ->
        let spans = List.sort (fun a b -> Int.compare a.Shim.t0 b.Shim.t0) l.trace in
        (engine_name e, List.filteri (fun i _ -> i < trace_cap) spans))
      layers
  in
  Shim.write_chrome_trace trace_path groups;
  let ns total count = if count = 0 then 0. else (fi total /. fi count) -. clock in
  let per total ops = ratio (fi total) (fi ops) in
  let eec_rows (e, l) =
    List.concat
      (List.mapi
         (fun c cname ->
           let s = Stat.Ibuf.sorted l.d2.Shim.lat.(c) in
           let k = Printf.sprintf "eec.%s.%s." (engine_name e) cname in
           [ metric (k ^ "p50_us") "us" (lat_us s 50.); metric (k ^ "p99_us") "us" (lat_us s 99.) ])
         (Array.to_list class_names))
  in
  let engine_rows (e, l) =
    let en = engine_name e ^ "." in
    let a1 = l.d1 and a2 = l.d2 in
    let rws = l.snap1.Stats.read_ws_hits + l.snap1.Stats.read_ws_misses in
    let g = "gc." ^ en in
    [ metric (en ^ "read_ns") "ns" (ns a1.read_ns a1.reads);
      metric (en ^ "reads_per_op") "count" (per a1.reads a1.ops);
      metric (en ^ "validations_per_op") "count" (per (Stats.Hist.count l.snap1.Stats.validation_len) a1.ops);
      metric (en ^ "ws_hit_ratio") "ratio" (per l.snap1.Stats.read_ws_hits rws);
      metric (en ^ "attempts_per_op") "count" (per a2.top_attempts a2.ops);
      metric (en ^ "abort_rate") "ratio" (per a2.top_aborted a2.top_attempts);
      metric (en ^ "readset_p50") "count" (fi (Stats.Hist.percentile l.snap2.Stats.read_set_size 50.));
      metric (en ^ "wasted_us_per_op") "us" (per a2.wasted_ns a2.ops /. 1e3);
      metric (en ^ "backoff_us_per_op") "us" (per a2.backoff_ns a2.ops /. 1e3);
      metric (en ^ "empty_tx_ns") "ns" (List.assoc e empty);
      metric (en ^ "write_ns") "ns" (ns a1.write_ns a1.writes);
      metric (en ^ "writes_per_op") "count" (per a1.writes a1.ops);
      metric (en ^ "body_us") "us" (per a1.body_ns a1.committed /. 1e3);
      metric (en ^ "commit_us") "us" (per a1.commit_ns a1.committed /. 1e3);
      metric (g ^ "minor_gcs_per_kop") "count" (per (1000 * l.minor_gcs) l.gc_ops);
      metric (g ^ "major_gcs_per_kop") "count" (per (1000 * l.major_gcs) l.gc_ops);
      metric (g ^ "promoted_words_per_op") "words" (l.promoted /. fi (max 1 l.gc_ops)) ]
  in
  let recover_ms = Stat.median Bank.figures.recover_ns /. 1e6 in
  let recs = fi Bank.figures.recovered_records /. fi (max 1 (List.length Bank.figures.recover_ns)) in
  let plain = List.fold_left (fun s (_, l) -> s + l.plain_ns) 0 layers in
  let traced_ns = List.fold_left (fun s (_, l) -> s + l.traced_ns) 0 layers in
  let metrics =
    List.concat_map eec_rows eec_layers
    @ List.concat_map engine_rows layers
    @ [ metric "stm_core.read_consistent_ns" "ns" rc;
        metric "persist.syncs_per_commit" "count" (per dc.Stats.wal_syncs dc.Stats.durable_commits);
        metric "persist.bytes_per_commit" "bytes" (per Bank.figures.bytes Bank.figures.appended);
        metric "persist.recover_ms" "ms" recover_ms;
        metric "persist.recover_records_per_ms" "1/ms" (recs /. recover_ms);
        metric "seqds.ops_per_ms" "ops/ms" seq;
        metric "trace.overhead_pct" "%" (100. *. (ratio (fi traced_ns) (fi plain) -. 1.)) ]
  in
  let lines =
    [ Printf.sprintf "rounds: %d (per engine: traced d1, untraced d2, traced d2), %d ops per domain per pass"
        nrounds w.ops_per_domain;
      Printf.sprintf "failed_op_share: %.6g (%d of %d ops)" (ratio (fi t.failed) (fi t.attempted)) t.failed t.attempted;
      Printf.sprintf "clock read: %.1f ns (subtracted from read_ns/write_ns)" clock;
      Printf.sprintf "chrome trace: %s (first traced d2 pass per engine, at most %d spans each)" trace_path trace_cap ]
    @ (if probes.eec <> None then [ "eec rows: from a hash-short probe (this workload does not call e.e.c)" ] else [])
    @ (if probes.persist <> None then [ "persist rows: from a bank-durable probe (this workload has no WAL)" ] else [])
  in
  { metrics; attempted = t.attempted; failed = t.failed; errors = List.rev t.errors; lines }

let json_line (r : result) =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (r.errors = [])
    r.attempted r.failed
    (String.concat ", "
       (List.map (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (num m.value) m.unit_) r.metrics))
