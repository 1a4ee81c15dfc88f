type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- v

let grow t =
  let data = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

(* Freed slots are wiped to the dummy so a cleared set stops pinning its
   elements (tvars, pending values) for the GC; the backing store itself
   is kept for reuse. *)
let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let for_all p t = not (exists (fun x -> not (p x)) t)

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))

(* In-place, allocation-free sort of the live prefix: insertion sort for
   small prefixes, heapsort beyond (both O(1) space).  Stability is not
   promised — the commit path sorts write entries by unique tvar id. *)
let sort cmp t =
  let a = t.data and n = t.len in
  if n > 1 then
    if n <= 32 then
      for i = 1 to n - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && cmp a.(!j) x > 0 do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let swap i j =
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      in
      let rec sift_down i stop =
        let l = (2 * i) + 1 in
        if l < stop then begin
          let child =
            if l + 1 < stop && cmp a.(l) a.(l + 1) < 0 then l + 1 else l
          in
          if cmp a.(i) a.(child) < 0 then begin
            swap i child;
            sift_down child stop
          end
        end
      in
      for i = (n / 2) - 1 downto 0 do
        sift_down i n
      done;
      for stop = n - 1 downto 1 do
        swap 0 stop;
        sift_down 0 stop
      done
    end
