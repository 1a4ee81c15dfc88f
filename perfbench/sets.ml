(* The two set workloads, list-6a and hash-short: the paper's op mix over
   e.e.c sets (Harness.Workload, Section VII.A). *)

module W = Harness.Workload

type spec = {
  cfg : W.config;
  buckets : int option;  (** [None]: LinkedListSet; [Some n]: HashSet with n buckets *)
}

(* Paper Fig. 6(a): 2^12 keys over 2^13, 20 % updates, 5 % of all ops bulk. *)
let list_6a = { cfg = W.paper ~size_exp:12 ~bulk_ratio:0.05 (); buckets = None }

(* Load factor 1 over 2^16 keys, 50 % updates, 15 % bulk: short chains. *)
let hash_short =
  { cfg = W.paper ~size_exp:16 ~update_ratio:0.5 ~bulk_ratio:0.15 ();
    buckets = Some (1 lsl 16) }

let cls = function
  | W.Contains _ -> 0
  | W.Add _ | W.Remove _ -> 1
  | W.Add_all _ | W.Remove_all _ -> 2

(* Domain i's stream is split i of the seed, so the one-domain stream is
   the first stream of the two-domain run. *)
let gen spec ~seed ~domains ~n =
  let rng = Harness.Prng.create ~seed in
  Array.init domains (fun i ->
      let r = Harness.Prng.split rng ~index:i in
      Array.init n (fun _ -> W.gen_op spec.cfg r))

module Seq_list = Seqds.Linked_list (Seqds.Int_key)
module Seq_hash = Seqds.Hash (Seqds.Int_key)

(* The sequential structure of the same shape, preloaded: the ceiling the
   seqds row reports and the model the one-domain gate replays. *)
let seq_model spec =
  let keys = W.initial_keys spec.cfg in
  match spec.buckets with
  | None ->
    let t = Seq_list.create () in
    Seq_list.unsafe_preload t keys;
    let run = function
      | W.Contains v -> ignore (Seq_list.contains t v)
      | W.Add v -> ignore (Seq_list.add t v)
      | W.Remove v -> ignore (Seq_list.remove t v)
      | W.Add_all (a, b) -> ignore (Seq_list.add_all t [ a; b ])
      | W.Remove_all (a, b) -> ignore (Seq_list.remove_all t [ a; b ])
    in
    (run, fun () -> Seq_list.to_list t)
  | Some b ->
    let t = Seq_hash.create_with_buckets b in
    Seq_hash.unsafe_preload t keys;
    let run = function
      | W.Contains v -> ignore (Seq_hash.contains t v)
      | W.Add v -> ignore (Seq_hash.add t v)
      | W.Remove v -> ignore (Seq_hash.remove t v)
      | W.Add_all (a, b) -> ignore (Seq_hash.add_all t [ a; b ])
      | W.Remove_all (a, b) -> ignore (Seq_hash.remove_all t [ a; b ])
    in
    (run, fun () -> List.sort Int.compare (Seq_hash.to_list t))

let seq_run spec stream =
  let run, _ = seq_model spec in
  Array.iter run stream

let touched spec streams =
  let range = W.key_range spec.cfg in
  let t = Array.make range false in
  Array.iter
    (Array.iter (function
      | W.Contains _ -> ()
      | W.Add v | W.Remove v -> t.(v) <- true
      | W.Add_all (a, b) | W.Remove_all (a, b) -> t.(a) <- true; t.(b) <- true))
    streams;
  t

let check spec ~invariants ~contents streams =
  let actual = contents () in
  let structural =
    Gates.all [ Result.map_error (fun e -> "invariants: " ^ e) (invariants ()); Gates.sorted_unique actual ]
  in
  match structural with
  | Error _ as e -> e
  | Ok () when Array.length streams = 1 ->
    let run, model = seq_model spec in
    Array.iter run streams.(0);
    Gates.replay_equal ~expected:(model ()) ~actual
  | Ok () ->
    Gates.untouched_membership ~range:(W.key_range spec.cfg)
      ~initial:(W.initial_keys spec.cfg) ~touched:(touched spec streams) ~actual

module Make (S : Stm_core.Stm_intf.S) = struct
  module Ll = Eec.Linked_list_set.Make (S) (Eec.Set_intf.Int_key)
  module Hs = Eec.Hash_set.Make (S) (Eec.Set_intf.Int_key)

  let setup spec : W.op Runner.inst =
    let keys = W.initial_keys spec.cfg in
    match spec.buckets with
    | None ->
      let t = Ll.create () in
      Ll.unsafe_preload t keys;
      let run_op = function
        | W.Contains v -> ignore (Ll.contains t v)
        | W.Add v -> ignore (Ll.add t v)
        | W.Remove v -> ignore (Ll.remove t v)
        | W.Add_all (a, b) -> ignore (Ll.add_all t [ a; b ])
        | W.Remove_all (a, b) -> ignore (Ll.remove_all t [ a; b ])
      in
      { run_op;
        check = check spec ~invariants:(fun () -> Ll.check_invariants t) ~contents:(fun () -> Ll.to_list t);
        close = ignore }
    | Some b ->
      let t = Hs.create_with_buckets b in
      Hs.unsafe_preload t keys;
      let run_op = function
        | W.Contains v -> ignore (Hs.contains t v)
        | W.Add v -> ignore (Hs.add t v)
        | W.Remove v -> ignore (Hs.remove t v)
        | W.Add_all (a, b) -> ignore (Hs.add_all t [ a; b ])
        | W.Remove_all (a, b) -> ignore (Hs.remove_all t [ a; b ])
      in
      { run_op;
        check = check spec ~invariants:(fun () -> Hs.check_invariants t) ~contents:(fun () -> Hs.to_list t);
        close = ignore }
end

module Oe = Make (Oestm.Oe)
module Tl2 = Make (Classic_stm.Tl2)
module Oe_traced = Make (Shim.Oe)
module Tl2_traced = Make (Shim.Tl2)

let setup spec (e : Runner.engine) ~traced =
  match (e, traced) with
  | Oe, false -> Oe.setup spec
  | Tl2, false -> Tl2.setup spec
  | Oe, true -> Oe_traced.setup spec
  | Tl2, true -> Tl2_traced.setup spec

let workload ~name ~ops_per_domain spec : W.op Runner.workload =
  { name; ops_per_domain; gen = gen spec; cls; stage = ignore; setup = setup spec;
    seq_run = seq_run spec;
    notes =
      [ Printf.sprintf "%s, %d keys preloaded over range %d, %.0f%% updates, %.0f%% bulk"
          (match spec.buckets with None -> "LinkedListSet" | Some b -> Printf.sprintf "HashSet(%d buckets)" b)
          (1 lsl spec.cfg.size_exp) (W.key_range spec.cfg)
          (100. *. spec.cfg.update_ratio) (100. *. spec.cfg.bulk_ratio) ] }
