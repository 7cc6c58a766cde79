(* Order statistics over plain float samples.  Quantiles are
   [Metrics.Cdf]'s (index floor (q * (n - 1)) of the sorted samples), so
   the p99s here read like the ones in the repo's BENCH_*.json files. *)

let cdf samples =
  let c = Metrics.Cdf.create () in
  List.iter (Metrics.Cdf.add c) samples;
  c

(* Samples ranked after [Metrics.Cdf.quantile c q]'s index. *)
let beyond c q =
  let n = Metrics.Cdf.count c in
  if n = 0 then 0 else n - 1 - int_of_float (q *. float_of_int (n - 1))

let median samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0. then 0. else num /. den
let per num den = ratio (float_of_int num) (float_of_int den)
