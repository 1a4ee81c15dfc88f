(* Correctness gates.  Each is a pure function over a run's observable
   result so the negative controls in test/ can feed it a corrupted one. *)

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Contents of a set must be strictly ascending: sorted and duplicate-free. *)
let sorted_unique = function
  | [] -> Ok ()
  | x :: rest ->
    let rec go prev = function
      | [] -> Ok ()
      | y :: _ when y <= prev -> errorf "set not sorted/duplicate-free at %d after %d" y prev
      | y :: tl -> go y tl
    in
    go x rest

(* Single-domain runs: the final contents equal a sequential replay. *)
let replay_equal ~expected ~actual =
  if expected = actual then Ok ()
  else
    let ne = List.length expected and na = List.length actual in
    let rec first_diff = function
      | x :: xs, y :: ys -> if x = y then first_diff (xs, ys) else Printf.sprintf "%d vs %d" x y
      | x :: _, [] -> Printf.sprintf "%d missing" x
      | [], y :: _ -> Printf.sprintf "%d extra" y
      | [], [] -> "?"
    in
    errorf "contents differ from the sequential replay (%d vs %d keys; first: %s)"
      ne na (first_diff (expected, actual))

(* Multi-domain runs: every key of [0, range) that no operation touched
   keeps its preloaded membership. *)
let untouched_membership ~range ~initial ~touched ~actual =
  let mem = Array.make range false and was = Array.make range false in
  List.iter (fun k -> if k >= 0 && k < range then mem.(k) <- true) actual;
  List.iter (fun k -> was.(k) <- true) initial;
  let bad = ref None in
  for k = range - 1 downto 0 do
    if (not touched.(k)) && mem.(k) <> was.(k) then bad := Some k
  done;
  match !bad with
  | None -> Ok ()
  | Some k ->
    errorf "untouched key %d changed membership (preloaded %b, now %b)" k was.(k) mem.(k)

(* Bank: transfers conserve the total. *)
let conserved ~expected balances =
  let total = Array.fold_left ( + ) 0 balances in
  if total = expected then Ok ()
  else errorf "total not conserved: %d, expected %d" total expected

(* Bank with [sync_every = 1]: after the final sync every appended record is
   acknowledged durable. *)
let all_acked ~acked ~appended =
  if acked = appended then Ok ()
  else errorf "acked_records %d <> appended_records %d after the final sync" acked appended

(* Bank: recovering the run's log into fresh accounts reproduces the
   in-memory balances exactly. *)
let recovered_equal ~live ~recovered =
  let n = Array.length live in
  if Array.length recovered <> n then errorf "recovered %d accounts, expected %d" (Array.length recovered) n
  else
    let rec go i =
      if i = n then Ok ()
      else if live.(i) <> recovered.(i) then
        errorf "account %d: live %d, recovered %d" i live.(i) recovered.(i)
      else go (i + 1)
    in
    go 0

let all l = List.fold_left (fun acc r -> match acc with Ok () -> r | e -> e) (Ok ()) l
