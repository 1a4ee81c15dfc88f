(* Small numeric helpers shared by the runner and the report. *)

let now_ns () = Int64.to_int (Stm_core.Mclock.now_ns ())

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)] (the
   default "exclusive" method), so the spreads this program prints match
   the ones a reader recomputes from the samples. *)
let quartiles l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The values of the (value, steal share) samples whose steal is at most
   the median steal: the least-stolen half, or more on ties. *)
let least_stolen_half l =
  let m = median (List.map snd l) in
  List.filter_map (fun (v, s) -> if s <= m then Some v else None) l

(* Nearest-rank percentile of an already sorted int array. *)
let percentile_sorted (a : int array) p =
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* A growable int buffer, for the traced run's op durations. *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Int.compare a;
    a
end
