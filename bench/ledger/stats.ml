(* Order statistics shared by the round summaries and the comparison
   table.  Quantiles interpolate linearly between order statistics
   (numpy's default), so a quartile of 6 round values is well defined. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5
let lower_quartile a = quantile a 0.25
let upper_quartile a = quantile a 0.75

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let geomean a =
  if Array.length a = 0 then Float.nan
  else exp (Array.fold_left (fun s x -> s +. log x) 0.0 a /. float_of_int (Array.length a))

(* Interquartile range as a share of the median: the run-to-run spread
   the bounds in BENCHMARK.json are judged against. *)
let rel_spread a =
  let s = sorted a in
  (quantile_sorted s 0.75 -. quantile_sorted s 0.25) /. quantile_sorted s 0.5

(* Latency samples of one round, in nanoseconds, as an unboxed growable
   buffer: appending in the timed loop never allocates once the buffer
   has grown to the round's size. *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4096 0; len = 0 }
  let clear t = t.len <- 0

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len

  let to_us t =
    Array.init t.len (fun i -> float_of_int t.data.(i) /. 1e3)

  let total_ns t =
    let s = ref 0 in
    for i = 0 to t.len - 1 do
      s := !s + t.data.(i)
    done;
    !s
end
