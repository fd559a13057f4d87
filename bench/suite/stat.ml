(* Order statistics shared by the workloads and [compare]. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile moves smoothly as samples are added. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let r = p *. float_of_int (n - 1) in
      let i = truncate r in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

(* Python's [statistics.quantiles(xs, n=4)] (method "exclusive") — the
   exact definition the acceptance check applies to run-to-run spreads. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else nan in
    (v, v, v)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc v -> acc +. log v) 0. xs
        /. float_of_int (List.length xs))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* Average ranks (ties share the mean of the ranks they span). *)
let ranks xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare a.(i) a.(j)) idx;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && a.(idx.(!j + 1)) = a.(idx.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j) /. 2. in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  Array.to_list r

let pearson xs ys =
  let mx = mean xs and my = mean ys in
  let sxy, sxx, syy =
    List.fold_left2
      (fun (sxy, sxx, syy) x y ->
        let dx = x -. mx and dy = y -. my in
        (sxy +. (dx *. dy), sxx +. (dx *. dx), syy +. (dy *. dy)))
      (0., 0., 0.) xs ys
  in
  if sxx = 0. || syy = 0. then 0. else sxy /. sqrt (sxx *. syy)

(* Spearman's rho; 0 when fewer than three pairs. *)
let spearman pairs =
  if List.length pairs < 3 then 0.
  else
    let xs, ys = List.split pairs in
    pearson (ranks xs) (ranks ys)
