(* Order statistics over samples held in a [Workload.Histogram].
   Percentiles are carried in integer permille so rank arithmetic is
   exact. *)

module H = Workload.Histogram

let of_list xs =
  let h = H.create () in
  List.iter (H.add h) xs;
  h

(* 1-based nearest rank of the [permille] percentile of [n] samples:
   ceil (permille * n / 1000), at least 1. *)
let rank ~n permille = max 1 (((permille * n) + 999) / 1000)

(* The sample of 1-based rank [r]: [H.percentile] at a fraction strictly
   inside ((r - 1) / n, r / n], so float rounding cannot move the rank. *)
let value_at h r = H.percentile h ((float_of_int r -. 0.5) /. float_of_int (H.count h))

type pct = {
  permille : int;  (** the percentile actually reported, 500 = median *)
  value : float;
  n : int;  (** sample count *)
}

let at h permille =
  let n = H.count h in
  { permille; value = value_at h (min n (rank ~n permille)); n }

(* The highest percentile up to p99 that leaves at least ten samples
   strictly beyond it.  With too few samples for even the median to have
   ten beyond it, the median is reported and [permille] says so. *)
let tail h =
  let n = H.count h in
  if n = 0 then { permille = 990; value = 0.0; n = 0 }
  else
    let p = ref 990 in
    while !p > 500 && n - rank ~n !p < 10 do
      decr p
    done;
    at h !p

let p50 h = if H.count h = 0 then { permille = 500; value = 0.0; n = 0 } else at h 500

let summary h = (p50 h, tail h)

let label { permille; _ } =
  if permille mod 10 = 0 then Printf.sprintf "p%d" (permille / 10)
  else Printf.sprintf "p%d.%d" (permille / 10) (permille mod 10)

(* Median of per-repetition figures (mean of the middle two). *)
let median xs =
  let h = of_list xs in
  let n = H.count h in
  if n = 0 then 0.0
  else if n mod 2 = 1 then value_at h ((n + 1) / 2)
  else (value_at h (n / 2) +. value_at h ((n / 2) + 1)) /. 2.0

(* Lower or upper quartile of per-repetition figures (nearest rank). *)
let quartile ~upper xs =
  let h = of_list xs in
  if H.count h = 0 then 0.0 else (at h (if upper then 750 else 250)).value

let ratio num den = if den = 0.0 then 0.0 else num /. den
