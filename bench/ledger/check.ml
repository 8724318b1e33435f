(* Correctness oracles.  Every output the ledger times is compared with a
   reference computed at set-up:
   - up to 2^12 points, the O(n^2) definition itself (bit-identical to
     Naive_dft, checked at start-up);
   - above that, a p=1 plan of the same transform, which is first
     checked against the definition on sampled output bins (a full
     O(n^2) reference at 2^16 would take minutes).
   The error measure is max |y - ref| / max |ref| and must stay within
   c * eps * log2 n. *)

open Spiral_util

let naive_limit = 4096
let tolerance_c = 8.0

let tolerance n =
  tolerance_c *. epsilon_float *. Float.max 1.0 (Float.log2 (float_of_int n))

(* NaN-safe: a non-finite output is an infinite error, never a pass *)
let rel_err (y : float array) (r : float array) =
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to Array.length r - 1 do
    let d = Float.abs (y.(i) -. r.(i)) in
    let d = if Float.is_nan d then infinity else d in
    if d > !num then num := d;
    let a = Float.abs r.(i) in
    if a > !den then den := a
  done;
  if !den = 0.0 then !num else !num /. !den

let ok ~n err = err <= tolerance n

(* deterministic per-(seed, purpose, slot) inputs *)
let seed_of seed tag slot = Hashtbl.hash (seed, tag, slot) land 0x3fffffff
let random_cvec ~seed ~tag ~slot n = Cvec.random ~seed:(seed_of seed tag slot) n

let random_reals ~seed ~tag ~slot n =
  let st = Random.State.make [| seed_of seed tag slot |] in
  Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

(* omega_n^j for j in [0, n), interleaved: the exact values
   Twiddle.omega_pow ~n ~k ~l returns for k*l = j (mod n) *)
let roots n =
  let t = Array.make (2 * n) 0.0 in
  for j = 0 to n - 1 do
    let w = Twiddle.omega n j in
    t.(2 * j) <- w.Complex.re;
    t.((2 * j) + 1) <- w.Complex.im
  done;
  t

(* output bin k of DFT_n of the n elements of x starting at [off] *)
let bin_into ~roots ~n ~off (x : float array) k =
  let re = ref 0.0 and im = ref 0.0 in
  let j = ref 0 in
  for l = 0 to n - 1 do
    let wr = roots.(2 * !j) and wi = roots.((2 * !j) + 1) in
    let i = off + l in
    let xr = x.(2 * i) and xi = x.((2 * i) + 1) in
    re := !re +. (xr *. wr) -. (xi *. wi);
    im := !im +. (xr *. wi) +. (xi *. wr);
    j := !j + k;
    if !j >= n then j := !j - n
  done;
  (!re, !im)

(* DFT_n by the definition, term for term and in the same order as
   Naive_dft.dft (so bit-identical to it), with the roots of unity
   tabulated once instead of recomputed per term *)
let definition (x : Cvec.t) =
  let n = Cvec.length x in
  let roots = roots n in
  let y = Cvec.create n in
  for k = 0 to n - 1 do
    let re, im = bin_into ~roots ~n ~off:0 x k in
    y.(2 * k) <- re;
    y.((2 * k) + 1) <- im
  done;
  y

let () =
  let x = Cvec.random ~seed:64 64 in
  if definition x <> Naive_dft.dft x then failwith "Check.definition differs from Naive_dft"

(* one output bin of DFT_n, by the definition *)
let dft_bin (x : Cvec.t) =
  let n = Cvec.length x in
  let roots = roots n in
  bin_into ~roots ~n ~off:0 x

(* one output bin (k1, k2) of the rows x cols 2-D DFT (row-major) *)
let dft2d_bin ~rows ~cols (x : Cvec.t) =
  let rr = roots rows and rc = roots cols in
  let row = Cvec.create rows in
  fun k1 k2 ->
    for r = 0 to rows - 1 do
      let re, im = bin_into ~roots:rc ~n:cols ~off:(r * cols) x k2 in
      row.(2 * r) <- re;
      row.((2 * r) + 1) <- im
    done;
    bin_into ~roots:rr ~n:rows ~off:0 row k1

let max_abs (y : float array) =
  Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 y

(* max error of [y] over [bins] sampled output bins, against [bin k] *)
let sampled_err ~bins ~count (y : Cvec.t) bin =
  let st = Random.State.make [| count; bins |] in
  let scale = max_abs y in
  let worst = ref 0.0 in
  for _ = 1 to bins do
    let k = Random.State.int st count in
    let re, im = bin k in
    let d =
      Float.max (Float.abs (y.(2 * k) -. re)) (Float.abs (y.((2 * k) + 1) -. im))
    in
    worst := Float.max !worst (if Float.is_nan d then infinity else d)
  done;
  if scale = 0.0 then !worst else !worst /. scale

let sample_bins = 48

exception Reference_failed of string

(* Reference outputs of DFT_n for [inputs]: the definition up to
   [naive_limit], else a p=1 plan verified on sampled bins of the first
   input. *)
let dft_refs n (inputs : Cvec.t array) =
  if n <= naive_limit then Array.map definition inputs
  else
    Spiral_fft.Dft.with_plan ~threads:1 n (fun p ->
        let refs = Array.map (Spiral_fft.Dft.execute p) inputs in
        let err =
          sampled_err ~bins:sample_bins ~count:n refs.(0) (dft_bin inputs.(0))
        in
        if not (ok ~n err) then
          raise
            (Reference_failed
               (Printf.sprintf "p=1 dft[%d] reference off the definition: %.3g" n
                  err));
        refs)

let dft2d_naive ~rows ~cols (x : Cvec.t) =
  let y = Cvec.create (rows * cols) in
  let row = Cvec.create cols and col = Cvec.create rows in
  for r = 0 to rows - 1 do
    Array.blit x (2 * r * cols) row 0 (2 * cols);
    Array.blit (definition row) 0 y (2 * r * cols) (2 * cols)
  done;
  for c = 0 to cols - 1 do
    for r = 0 to rows - 1 do
      Cvec.set col r (Cvec.get y ((r * cols) + c))
    done;
    let t = definition col in
    for r = 0 to rows - 1 do
      Cvec.set y ((r * cols) + c) (Cvec.get t r)
    done
  done;
  y

let dft2d_refs ~rows ~cols (inputs : Cvec.t array) =
  let n = rows * cols in
  if n <= naive_limit then Array.map (dft2d_naive ~rows ~cols) inputs
  else
    Spiral_fft.Dft2d.with_plan ~threads:1 ~rows ~cols (fun p ->
        let refs = Array.map (Spiral_fft.Dft2d.execute p) inputs in
        let bin = dft2d_bin ~rows ~cols inputs.(0) in
        let err =
          sampled_err ~bins:sample_bins ~count:n refs.(0) (fun k -> bin (k / cols) (k mod cols))
        in
        if not (ok ~n err) then
          raise
            (Reference_failed
               (Printf.sprintf "p=1 dft2d[%dx%d] reference off the definition: %.3g"
                  rows cols err));
        refs)

(* half spectrum (n/2 + 1 bins) of a real signal, by the definition *)
let rfft_ref (x : float array) =
  let n = Array.length x in
  let c = Cvec.create n in
  Array.iteri (fun i v -> c.(2 * i) <- v) x;
  Array.sub (definition c) 0 (2 * ((n / 2) + 1))
