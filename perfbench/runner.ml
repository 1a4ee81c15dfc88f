(* What every workload provides, and the closed-loop batch runner. *)

type engine = Oe | Tl2

let engines = [ Oe; Tl2 ]
let engine_name = function Oe -> "oestm" | Tl2 -> "tl2"

(* Op classes, for the per-class latency rows of the traced run. *)
let class_names = [| "contains"; "update"; "bulk" |]

(* One freshly set-up, preloaded instance of a workload's state. *)
type 'op inst = {
  run_op : 'op -> unit;
  check : 'op array array -> (unit, string) result;
      (** the correctness gates, given the streams that ran *)
  close : unit -> unit;
}

type 'op workload = {
  name : string;
  ops_per_domain : int;  (** fixed batch size of the timed runs *)
  gen : seed:int -> domains:int -> n:int -> 'op array array;
  cls : 'op -> int;
  stage : unit -> unit;  (** untimed: put the set-up inputs in place *)
  setup : engine -> traced:bool -> 'op inst;  (** timed as setup_s *)
  seq_run : 'op array -> unit;  (** the same stream on the sequential ceiling *)
  notes : string list;  (** fixed policy lines printed with the output *)
}

type batch = {
  elapsed_ns : int;  (** first stream start to last stream end *)
  steal : float;  (** share of all CPU time the hypervisor stole meanwhile *)
  lat : int array array;  (** per-domain, per-op latency in ns *)
  failed : int;  (** ops that raised *)
  ops : int;
}

let run_stream inst ~wrap stream lat =
  let failed = ref 0 in
  Array.iteri
    (fun i op ->
      let t0 = Stat.now_ns () in
      (match wrap op (fun () -> inst.run_op op) with
       | () -> ()
       | exception (Out_of_memory | Stack_overflow as e) -> raise e
       | exception _ -> incr failed);
      lat.(i) <- Stat.now_ns () - t0)
    stream;
  !failed

(* The second domain of d2 batches.  The main domain runs the first
   stream itself, so during a timed batch every domain of the process is
   busy: OCaml 5 minor collections stop every domain, and an idle one
   (blocked in the runtime) has to be woken for each collection, which on
   a 2-vCPU VM made throughput vary by 30 % between runs.  For the same
   reason the worker exists only during the d2 phase of a round.  Between
   batches it blocks on a condition variable. *)
type worker = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable task : (unit -> unit) option;
  mutable finished : bool;
  mutable error : exn option;
  mutable quit : bool;
  mutable domain : unit Domain.t option;
}

let rec serve w =
  Mutex.lock w.mu;
  while w.task = None && not w.quit do Condition.wait w.cv w.mu done;
  match w.task with
  | None -> Mutex.unlock w.mu
  | Some task ->
    w.task <- None;
    Mutex.unlock w.mu;
    let err = match task () with () -> None | exception e -> Some e in
    Mutex.protect w.mu (fun () ->
        w.error <- err;
        w.finished <- true;
        Condition.broadcast w.cv);
    serve w

let submit w task =
  Mutex.protect w.mu (fun () ->
      w.task <- Some task;
      w.finished <- false;
      w.error <- None;
      Condition.broadcast w.cv)

let await w =
  Mutex.protect w.mu (fun () -> while not w.finished do Condition.wait w.cv w.mu done);
  Option.iter raise w.error

(* Spawn the worker, run [f] with it, then stop and join it.  The worker
   first allocates through its whole minor heap, so the first timed ops do
   not pay a fresh domain's first-touch page faults. *)
let with_worker f =
  let w =
    { mu = Mutex.create (); cv = Condition.create (); task = None; finished = false;
      error = None; quit = false; domain = None }
  in
  w.domain <- Some (Domain.spawn (fun () -> serve w));
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect w.mu (fun () -> w.quit <- true; Condition.broadcast w.cv);
      Option.iter Domain.join w.domain)
    (fun () ->
      submit w (fun () -> ignore (Sys.opaque_identity (List.init 300_000 Fun.id)));
      await w;
      f w)

(* Steal and total ticks over all CPUs, from the first line of
   /proc/stat; (0, 0) where there is none. *)
let cpu_ticks () =
  let ticks l =
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: fields -> List.filteri (fun i _ -> i < 8) fields |> List.filter_map int_of_string_opt
    | _ -> []
  in
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l when List.length (ticks l) = 8 -> (List.nth (ticks l) 7, List.fold_left ( + ) 0 (ticks l))
  | Some _ | None -> (0, 0)
  | exception Sys_error _ -> (0, 0)

(* Closed loop: each domain issues its next op when the previous returns.
   One stream runs on the main domain; of two, the second runs on the
   worker, and both start once both domains have taken their stream. *)
let run_batch ?(wrap = fun _ f -> f ()) ?worker inst streams =
  let lat = Array.map (fun s -> Array.make (Array.length s) 0) streams in
  let ops = Array.fold_left (fun n s -> n + Array.length s) 0 streams in
  let steal0, ticks0 = cpu_ticks () in
  let elapsed_ns, failed =
    match (streams, worker) with
    | [| s |], _ ->
      let t0 = Stat.now_ns () in
      let failed = run_stream inst ~wrap s lat.(0) in
      (Stat.now_ns () - t0, failed)
    | [| s0; s1 |], Some w ->
      let ready = Atomic.make 0 in
      let go i s =
        Atomic.incr ready;
        while Atomic.get ready < 2 do Domain.cpu_relax () done;
        let t0 = Stat.now_ns () in
        let failed = run_stream inst ~wrap s lat.(i) in
        (t0, Stat.now_ns (), failed)
      in
      let second = ref (0, 0, 0) in
      submit w (fun () -> second := go 1 s1);
      let a0, a1, f0 = go 0 s0 in
      await w;
      let b0, b1, f1 = !second in
      (max a1 b1 - min a0 b0, f0 + f1)
    | _ -> invalid_arg "run_batch: one stream, or two with the worker domain"
  in
  let steal1, ticks1 = cpu_ticks () in
  let steal =
    if ticks1 > ticks0 then float_of_int (steal1 - steal0) /. float_of_int (ticks1 - ticks0) else 0.
  in
  { elapsed_ns; steal; lat; failed; ops }
