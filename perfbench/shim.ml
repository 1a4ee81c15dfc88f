(* The traced run's shim: an engine wrapper that records spans around the
   calls into each layer's public functions, from outside [lib/].

   Three span levels: op (recorded by the runner around one e.e.c set
   operation or transfer), [atomic] (top-level or nested child) and
   attempt (one invocation of the body the engine retries).  Reads and
   writes are not spans: each attempt aggregates their count and time.
   Spans stay in per-domain memory until {!collect}. *)

type kind = Op | Top | Child | Attempt

type span = {
  id : int;
  up : span;  (** enclosing span; {!root} for op spans *)
  kind : kind;
  cls : int;  (** op class of op spans, -1 otherwise *)
  op : int;  (** id of the op span this span belongs to *)
  dom : int;
  t0 : int;
  mutable t1 : int;
  mutable raised : bool;
  mutable reads : int;
  mutable read_ns : int;
  mutable writes : int;
  mutable write_ns : int;
}

let rec root =
  { id = -1; up = root; kind = Op; cls = -1; op = -1; dom = -1; t0 = 0; t1 = 0;
    raised = false; reads = 0; read_ns = 0; writes = 0; write_ns = 0 }

type dom = {
  did : int;
  mutable seq : int;
  mutable cur : span;
  mutable spans : span list;
}

let doms : dom list ref = ref []
let doms_mu = Mutex.create ()
let next_did = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      let d = { did = Atomic.fetch_and_add next_did 1; seq = 0; cur = root; spans = [] } in
      Mutex.protect doms_mu (fun () -> doms := d :: !doms);
      d)

let open_span d kind cls =
  let up = d.cur in
  let id = (d.did lsl 32) lor d.seq in
  d.seq <- d.seq + 1;
  let s =
    { id; up; kind; cls; op = (if kind = Op then id else up.op); dom = d.did;
      t0 = Stat.now_ns (); t1 = 0; raised = false; reads = 0; read_ns = 0;
      writes = 0; write_ns = 0 }
  in
  d.cur <- s;
  s

let close d s ~raised =
  s.t1 <- Stat.now_ns ();
  s.raised <- raised;
  d.cur <- s.up;
  d.spans <- s :: d.spans

let spanned d kind cls f =
  let s = open_span d kind cls in
  match f () with
  | v -> close d s ~raised:false; v
  | exception e -> close d s ~raised:true; raise e

(* Wrap one op of class [cls]; the runner's [wrap] hook. *)
let with_op cls f = spanned (Domain.DLS.get key) Op cls f

(* Every span recorded since the last call, from every domain. *)
let collect () =
  Mutex.protect doms_mu (fun () ->
      List.concat_map (fun d -> let s = d.spans in d.spans <- []; s) !doms)

module Make (S : Stm_core.Stm_intf.S) :
  Stm_core.Stm_intf.S with type 'a tvar = 'a S.tvar and type ctx = S.ctx = struct
  include S

  let read ctx tv =
    let t0 = Stat.now_ns () in
    let v = S.read ctx tv in
    let dt = Stat.now_ns () - t0 in
    let s = (Domain.DLS.get key).cur in
    s.reads <- s.reads + 1;
    s.read_ns <- s.read_ns + dt;
    v

  let write ctx tv v =
    let t0 = Stat.now_ns () in
    S.write ctx tv v;
    let dt = Stat.now_ns () - t0 in
    let s = (Domain.DLS.get key).cur in
    s.writes <- s.writes + 1;
    s.write_ns <- s.write_ns + dt

  let atomic ?mode body =
    let d = Domain.DLS.get key in
    let kind = if d.cur.kind = Attempt then Child else Top in
    spanned d kind (-1) (fun () ->
        S.atomic ?mode (fun ctx -> spanned d Attempt (-1) (fun () -> body ctx)))
end

(* Per-engine totals over the spans of any number of passes. *)
type acc = {
  mutable ops : int;
  lat : Stat.Ibuf.t array;  (** op durations by class *)
  mutable reads : int;
  mutable read_ns : int;
  mutable writes : int;
  mutable write_ns : int;
  mutable top_attempts : int;
  mutable top_aborted : int;
  mutable wasted_ns : int;  (** durations of aborted top-level attempt bodies *)
  mutable backoff_ns : int;  (** gaps between consecutive top-level attempts *)
  mutable committed : int;
  mutable body_ns : int;  (** committing top-level attempt bodies *)
  mutable commit_ns : int;  (** last body return to [atomic] return *)
}

let acc () =
  { ops = 0; lat = Array.init (Array.length Runner.class_names) (fun _ -> Stat.Ibuf.create ());
    reads = 0; read_ns = 0; writes = 0; write_ns = 0; top_attempts = 0; top_aborted = 0;
    wasted_ns = 0; backoff_ns = 0; committed = 0; body_ns = 0; commit_ns = 0 }

let summarize a spans =
  let attempts = Hashtbl.create 4096 in
  List.iter (fun s -> if s.kind = Attempt then Hashtbl.add attempts s.up.id s) spans;
  List.iter
    (fun s ->
      match s.kind with
      | Op ->
        a.ops <- a.ops + 1;
        Stat.Ibuf.add a.lat.(s.cls) (s.t1 - s.t0)
      | Attempt ->
        a.reads <- a.reads + s.reads;
        a.read_ns <- a.read_ns + s.read_ns;
        a.writes <- a.writes + s.writes;
        a.write_ns <- a.write_ns + s.write_ns
      | Child -> ()
      | Top ->
        let atts =
          List.sort (fun x y -> Int.compare x.t0 y.t0) (Hashtbl.find_all attempts s.id)
          |> Array.of_list
        in
        let n = Array.length atts in
        a.top_attempts <- a.top_attempts + n;
        let wasted = if s.raised then n else n - 1 in
        a.top_aborted <- a.top_aborted + wasted;
        for i = 0 to wasted - 1 do
          a.wasted_ns <- a.wasted_ns + (atts.(i).t1 - atts.(i).t0)
        done;
        for i = 0 to n - 2 do
          a.backoff_ns <- a.backoff_ns + (atts.(i + 1).t0 - atts.(i).t1)
        done;
        if (not s.raised) && n > 0 then begin
          let last = atts.(n - 1) in
          a.committed <- a.committed + 1;
          a.body_ns <- a.body_ns + (last.t1 - last.t0);
          a.commit_ns <- a.commit_ns + (s.t1 - last.t1)
        end)
    spans

(* Chrome trace-event JSON ("X" complete events), loadable in Perfetto or
   chrome://tracing.  [groups] is one (process name, spans) per engine. *)
let write_chrome_trace path groups =
  let base =
    List.fold_left
      (fun m (_, spans) -> List.fold_left (fun m s -> min m s.t0) m spans)
      max_int groups
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      let first = ref true in
      let sep () = if !first then first := false else output_string oc ",\n" in
      List.iteri
        (fun pid (pname, spans) ->
          sep ();
          Printf.fprintf oc
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}" pid pname;
          List.iter
            (fun s ->
              let name, cat =
                match s.kind with
                | Op -> (Runner.class_names.(s.cls), "eec")
                | Top -> ("atomic", "engine")
                | Child -> ("atomic.child", "engine")
                | Attempt -> ("attempt", "engine")
              in
              sep ();
              Printf.fprintf oc
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"raised\":%b,\"reads\":%d,\"read_ns\":%d,\"writes\":%d,\"write_ns\":%d}}"
                name cat pid s.dom
                (float_of_int (s.t0 - base) /. 1e3)
                (float_of_int (s.t1 - s.t0) /. 1e3)
                s.id s.up.id s.op s.raised s.reads s.read_ns s.writes s.write_ns)
            spans)
        groups;
      output_string oc "]}\n")

module Oe = Make (Oestm.Oe)
module Tl2 = Make (Classic_stm.Tl2)
