(* bank-durable: conserving transfers between Persist.Ptvar accounts with
   the write-ahead log on at sync_every = 1, the only setting where an
   acknowledged commit is a durable one. *)

module P = Persist

let accounts = 4096
let initial_balance = 1000
let prewritten_records = 16384

type op = { src : int; dst : int }

let gen ~seed ~domains ~n =
  let rng = Harness.Prng.create ~seed in
  Array.init domains (fun i ->
      let r = Harness.Prng.split rng ~index:i in
      Array.init n (fun _ ->
          let src = Harness.Prng.int r accounts in
          { src; dst = (src + 1 + Harness.Prng.int r (accounts - 1)) mod accounts }))

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
let file_size path = (Unix.stat path).Unix.st_size

(* The seeded log set-up recovers: [prewritten_records] conserving
   transfers from the initial balances, framed by the real WAL writer. *)
let log_image ~seed ~path =
  if Sys.file_exists path then Sys.remove path;
  let w = P.Wal.open_log ~path ~sync_every:0 ~sync_ns:0 in
  let bal = Array.make accounts initial_balance in
  let rng = Harness.Prng.create ~seed:(seed lxor 0x5eed) in
  for wv = 1 to prewritten_records do
    let a = Harness.Prng.int rng accounts in
    let b = (a + 1 + Harness.Prng.int rng (accounts - 1)) mod accounts in
    bal.(a) <- bal.(a) - 1;
    bal.(b) <- bal.(b) + 1;
    P.Wal.append w
      (P.Wal.Update { wv; entries = [ (a, P.Codec.int.encode bal.(a)); (b, P.Codec.int.encode bal.(b)) ] })
  done;
  P.Wal.close w;
  let s = read_file path in
  Sys.remove path;
  s

let fresh_accounts () =
  Array.init accounts (fun id -> P.Ptvar.make ~id ~codec:P.Codec.int initial_balance)

(* Totals over every set-up and check since [reset_figures], for the
   traced run's persist rows. *)
type wal_figures = {
  mutable recover_ns : float list;  (** one per set-up *)
  mutable recovered_records : int;
  mutable appended : int;
  mutable bytes : int;
}

let figures = { recover_ns = []; recovered_records = 0; appended = 0; bytes = 0 }

let reset_figures () =
  figures.recover_ns <- [];
  figures.recovered_records <- 0;
  figures.appended <- 0;
  figures.bytes <- 0

module Make (S : Stm_core.Stm_intf.S with type 'a tvar = 'a Stm_core.Tvar.t) = struct
  let transfer accts { src; dst } =
    let a = P.Ptvar.tvar accts.(src) and b = P.Ptvar.tvar accts.(dst) in
    S.atomic (fun ctx ->
        let x = S.read ctx a in
        let y = S.read ctx b in
        S.write ctx a (x - 1);
        S.write ctx b (y + 1))
end

module Oe = Make (Oestm.Oe)
module Tl2 = Make (Classic_stm.Tl2)
module Oe_traced = Make (Shim.Oe)
module Tl2_traced = Make (Shim.Tl2)

let check ~path ~size0 accts _streams =
  P.sync ();
  let acked = P.acked_records () and appended = P.appended_records () in
  figures.appended <- figures.appended + appended;
  figures.bytes <- figures.bytes + (file_size path - size0);
  P.disable ();
  let live = Array.map P.Ptvar.value accts in
  P.reset_for_testing ();
  let fresh = fresh_accounts () in
  ignore (P.recover ~path ());
  let recovered = Array.map P.Ptvar.value fresh in
  Gates.all
    [ Gates.all_acked ~acked ~appended;
      Gates.conserved ~expected:(accounts * initial_balance) live;
      Gates.recovered_equal ~live ~recovered ]

let setup ~path (e : Runner.engine) ~traced : op Runner.inst =
  P.reset_for_testing ();
  let accts = fresh_accounts () in
  let t0 = Stat.now_ns () in
  let s = P.recover ~path () in
  figures.recover_ns <- float_of_int (Stat.now_ns () - t0) :: figures.recover_ns;
  figures.recovered_records <- figures.recovered_records + s.P.records_intact;
  P.enable ~sync_every:1 ~path ();
  let size0 = file_size path in
  let transfer =
    match (e, traced) with
    | Oe, false -> Oe.transfer
    | Tl2, false -> Tl2.transfer
    | Oe, true -> Oe_traced.transfer
    | Tl2, true -> Tl2_traced.transfer
  in
  { run_op = transfer accts; check = check ~path ~size0 accts; close = P.reset_for_testing }

(* The sequential ceiling: the same transfers on a plain array. *)
let seq_run stream =
  let bal = Array.make accounts initial_balance in
  Array.iter (fun { src; dst } -> bal.(src) <- bal.(src) - 1; bal.(dst) <- bal.(dst) + 1) stream

let workload ~dir ~seed ~ops_per_domain : op Runner.workload =
  let path = Filename.concat dir "bank-durable.wal" in
  let image = lazy (log_image ~seed ~path) in
  { name = "bank-durable"; ops_per_domain; gen; cls = (fun _ -> 1);
    stage = (fun () -> write_file path (Lazy.force image));
    setup = setup ~path; seq_run;
    notes =
      [ Printf.sprintf "%d Persist.Ptvar int accounts, 1-unit transfers between two distinct uniform accounts" accounts;
        Printf.sprintf "WAL flush policy: sync_every=1 sync_ns=0 (fsync before each commit returns), log %s" path;
        Printf.sprintf "set-up recovers a seeded pre-written log of %d transfer records" prewritten_records ] }
