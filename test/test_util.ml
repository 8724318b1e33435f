open Spiral_util

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Int_util                                                            *)

let test_is_pow2 () =
  List.iter (fun n -> check cb (string_of_int n) true (Int_util.is_pow2 n))
    [ 1; 2; 4; 1024; 1 lsl 30 ];
  List.iter (fun n -> check cb (string_of_int n) false (Int_util.is_pow2 n))
    [ 0; -4; 3; 6; 12; 1023 ]

let test_ilog2 () =
  check ci "ilog2 1" 0 (Int_util.ilog2 1);
  check ci "ilog2 2" 1 (Int_util.ilog2 2);
  check ci "ilog2 1024" 10 (Int_util.ilog2 1024);
  Alcotest.check_raises "ilog2 3" (Invalid_argument "Int_util.ilog2: not a power of two")
    (fun () -> ignore (Int_util.ilog2 3))

let test_pow () =
  check ci "2^10" 1024 (Int_util.pow 2 10);
  check ci "3^4" 81 (Int_util.pow 3 4);
  check ci "x^0" 1 (Int_util.pow 7 0);
  check ci "0^3" 0 (Int_util.pow 0 3)

let test_divisors () =
  check (Alcotest.list ci) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Int_util.divisors 12);
  check (Alcotest.list ci) "divisors 1" [ 1 ] (Int_util.divisors 1);
  check (Alcotest.list ci) "divisors 7" [ 1; 7 ] (Int_util.divisors 7)

let test_factor_pairs () =
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "pairs 12"
    [ (2, 6); (3, 4); (4, 3); (6, 2) ]
    (Int_util.factor_pairs 12);
  check (Alcotest.list (Alcotest.pair ci ci)) "pairs 7" [] (Int_util.factor_pairs 7)

let test_gcd () =
  check ci "gcd 12 18" 6 (Int_util.gcd 12 18);
  check ci "gcd 0 5" 5 (Int_util.gcd 0 5);
  check ci "gcd neg" 4 (Int_util.gcd (-8) 12)

let test_prime_factors () =
  check (Alcotest.list ci) "pf 360" [ 2; 2; 2; 3; 3; 5 ] (Int_util.prime_factors 360);
  check (Alcotest.list ci) "pf 1" [] (Int_util.prime_factors 1);
  check (Alcotest.list ci) "pf 97" [ 97 ] (Int_util.prime_factors 97)

let test_ceil_div () =
  check ci "7/2" 4 (Int_util.ceil_div 7 2);
  check ci "8/2" 4 (Int_util.ceil_div 8 2);
  check ci "0/3" 0 (Int_util.ceil_div 0 3)

let prop_factor_pairs_product =
  QCheck.Test.make ~name:"factor_pairs multiply back to n" ~count:100
    QCheck.(int_range 2 3000)
    (fun n ->
      List.for_all (fun (m, k) -> m * k = n && m > 1 && k > 1)
        (Int_util.factor_pairs n))

let prop_prime_factors_product =
  QCheck.Test.make ~name:"prime factors multiply back to n" ~count:100
    QCheck.(int_range 1 100000)
    (fun n -> List.fold_left ( * ) 1 (Int_util.prime_factors n) = n)

(* ------------------------------------------------------------------ *)
(* Cvec                                                                *)

let test_cvec_get_set () =
  let x = Cvec.create 4 in
  Cvec.set x 2 { Complex.re = 1.5; im = -2.5 };
  check (Alcotest.float 0.0) "re" 1.5 (Cvec.get x 2).Complex.re;
  check (Alcotest.float 0.0) "im" (-2.5) (Cvec.get x 2).Complex.im;
  check ci "length" 4 (Cvec.length x)

let test_cvec_roundtrip () =
  let a = Array.init 5 (fun i -> { Complex.re = float_of_int i; im = -.float_of_int i }) in
  let x = Cvec.of_complex_array a in
  check cb "roundtrip" true (Cvec.to_complex_array x = a)

let test_cvec_basis () =
  let e = Cvec.basis 4 1 in
  check (Alcotest.float 0.0) "one" 1.0 e.(2);
  check (Alcotest.float 0.0) "rest" 0.0 (Cvec.l2_norm e -. 1.0)

let test_cvec_ops () =
  let x = Cvec.of_real_list [ 3.0; 4.0 ] in
  check (Alcotest.float 1e-12) "l2" 5.0 (Cvec.l2_norm x);
  Cvec.scale 2.0 x;
  check (Alcotest.float 1e-12) "scaled" 10.0 (Cvec.l2_norm x);
  let y = Cvec.add x x in
  check (Alcotest.float 1e-12) "add" 20.0 (Cvec.l2_norm y)

let test_cvec_blit_mismatch () =
  Alcotest.check_raises "blit" (Invalid_argument "Cvec.blit: length mismatch")
    (fun () -> Cvec.blit (Cvec.create 3) (Cvec.create 4))

let test_cvec_random_deterministic () =
  check cb "same seed same vector" true
    (Cvec.random ~seed:9 16 = Cvec.random ~seed:9 16);
  check cb "different seeds differ" true
    (Cvec.random ~seed:9 16 <> Cvec.random ~seed:10 16)

(* ------------------------------------------------------------------ *)
(* Twiddle                                                             *)

let capprox = Alcotest.testable
    (fun ppf (z : Complex.t) -> Format.fprintf ppf "%g%+gi" z.re z.im)
    (fun a b -> Complex.norm (Complex.sub a b) < 1e-12)

let test_omega_basic () =
  check capprox "w_4^0" Complex.one (Twiddle.omega 4 0);
  check capprox "w_4^1" { Complex.re = 0.0; im = -1.0 } (Twiddle.omega 4 1);
  check capprox "w_4^2" { Complex.re = -1.0; im = 0.0 } (Twiddle.omega 4 2);
  check capprox "w_2^1" { Complex.re = -1.0; im = 0.0 } (Twiddle.omega 2 1)

let test_omega_periodic () =
  check capprox "w_8^9 = w_8^1" (Twiddle.omega 8 1) (Twiddle.omega 8 9);
  check capprox "negative k" (Twiddle.omega 8 7) (Twiddle.omega 8 (-1))

let test_omega_pow () =
  check capprox "reduction" (Twiddle.omega 16 (3 * 5 mod 16))
    (Twiddle.omega_pow ~n:16 ~k:3 ~l:5);
  check capprox "large exponents"
    (Twiddle.omega 12 (11 * 11 mod 12))
    (Twiddle.omega_pow ~n:12 ~k:(11 + 120) ~l:(11 + 240))

let test_twiddle_diag () =
  let d = Twiddle.twiddle_diag ~m:2 ~n:4 in
  check ci "size" 8 (Array.length d);
  (* entry i*n+j = w_8^(i*j) *)
  check capprox "d[0]" Complex.one d.(0);
  check capprox "d[5]" (Twiddle.omega 8 1) d.(5);
  check capprox "d[7]" (Twiddle.omega 8 3) d.(7)

let prop_omega_unit =
  QCheck.Test.make ~name:"omega has unit magnitude" ~count:200
    QCheck.(pair (int_range 1 64) (int_range (-100) 100))
    (fun (n, k) -> Float.abs (Complex.norm (Twiddle.omega n k) -. 1.0) < 1e-12)

(* ------------------------------------------------------------------ *)
(* Naive DFT                                                           *)

let test_dft_impulse () =
  (* DFT of the unit impulse is all ones *)
  let y = Naive_dft.dft (Cvec.basis 8 0) in
  for i = 0 to 7 do
    if Float.abs (y.(2 * i) -. 1.0) > 1e-12 || Float.abs y.((2 * i) + 1) > 1e-12
    then Alcotest.failf "bin %d: %g%+gi" i y.(2 * i) y.((2 * i) + 1)
  done

let test_dft_constant () =
  (* DFT of all-ones is n * impulse *)
  let x = Cvec.of_real_list [ 1.0; 1.0; 1.0; 1.0 ] in
  let y = Naive_dft.dft x in
  check (Alcotest.float 1e-12) "dc" 4.0 y.(0);
  check (Alcotest.float 1e-12) "rest" 0.0
    (Cvec.max_abs_diff y (Cvec.of_complex_array
       [| { Complex.re = 4.0; im = 0.0 }; Complex.zero; Complex.zero; Complex.zero |]))

let test_dft_known_4 () =
  (* x = [1, 2, 3, 4]: DFT = [10, -2+2i, -2, -2-2i] *)
  let y = Naive_dft.dft (Cvec.of_real_list [ 1.0; 2.0; 3.0; 4.0 ]) in
  let want =
    Cvec.of_complex_array
      [| { Complex.re = 10.0; im = 0.0 }; { re = -2.0; im = 2.0 };
         { re = -2.0; im = 0.0 }; { re = -2.0; im = -2.0 } |]
  in
  check cb "known dft4" true (Cvec.max_abs_diff y want < 1e-12)

let prop_idft_roundtrip =
  QCheck.Test.make ~name:"idft (dft x) = x" ~count:50
    QCheck.(int_range 1 32)
    (fun n ->
      let x = Cvec.random ~seed:n n in
      Cvec.max_abs_diff (Naive_dft.idft (Naive_dft.dft x)) x < 1e-9)

let prop_dft_linear =
  QCheck.Test.make ~name:"dft is linear" ~count:50
    QCheck.(int_range 1 24)
    (fun n ->
      let x = Cvec.random ~seed:n n and y = Cvec.random ~seed:(n + 1000) n in
      let lhs = Naive_dft.dft (Cvec.add x y) in
      let rhs = Cvec.add (Naive_dft.dft x) (Naive_dft.dft y) in
      Cvec.max_abs_diff lhs rhs < 1e-9)

let test_dft_parseval () =
  let x = Cvec.random ~seed:3 16 in
  let y = Naive_dft.dft x in
  let ex = Cvec.l2_norm x and ey = Cvec.l2_norm y in
  check (Alcotest.float 1e-9) "parseval" (ex *. ex *. 16.0) (ey *. ey)

(* ------------------------------------------------------------------ *)
(* Cmatrix                                                             *)

let test_cmatrix_identity () =
  let i3 = Cmatrix.identity 3 in
  let m = Cmatrix.init 3 3 (fun i j -> { Complex.re = float_of_int ((3 * i) + j); im = 1.0 }) in
  check cb "I*m = m" true (Cmatrix.equal_approx (Cmatrix.mul i3 m) m);
  check cb "m*I = m" true (Cmatrix.equal_approx (Cmatrix.mul m i3) m)

let test_cmatrix_kron_dims () =
  let a = Cmatrix.identity 2 and b = Cmatrix.identity 3 in
  let k = Cmatrix.kronecker a b in
  check ci "rows" 6 (Cmatrix.rows k);
  check ci "cols" 6 (Cmatrix.cols k);
  check cb "I2 (x) I3 = I6" true (Cmatrix.equal_approx k (Cmatrix.identity 6))

let test_cmatrix_kron_values () =
  let two = { Complex.re = 2.0; im = 0.0 } in
  let a = Cmatrix.init 1 1 (fun _ _ -> two) in
  let b = Cmatrix.init 2 2 (fun i j -> if i = j then Complex.one else Complex.zero) in
  let k = Cmatrix.kronecker a b in
  check cb "2*I2" true
    (Cmatrix.equal_approx k (Cmatrix.init 2 2 (fun i j -> if i = j then two else Complex.zero)))

let test_cmatrix_perm () =
  (* sigma = [2;0;1]: y0 = x2, y1 = x0, y2 = x1 *)
  let p = Cmatrix.of_permutation [| 2; 0; 1 |] in
  let x = Cvec.of_real_list [ 10.0; 20.0; 30.0 ] in
  let y = Cmatrix.apply p x in
  check cb "gather convention" true
    (Cvec.max_abs_diff y (Cvec.of_real_list [ 30.0; 10.0; 20.0 ]) < 1e-12)

let test_cmatrix_direct_sum () =
  let a = Cmatrix.identity 2 in
  let b = Cmatrix.init 1 1 (fun _ _ -> { Complex.re = 5.0; im = 0.0 }) in
  let s = Cmatrix.direct_sum [ a; b ] in
  check ci "rows" 3 (Cmatrix.rows s);
  let x = Cvec.of_real_list [ 1.0; 2.0; 3.0 ] in
  check cb "apply" true
    (Cvec.max_abs_diff (Cmatrix.apply s x) (Cvec.of_real_list [ 1.0; 2.0; 15.0 ]) < 1e-12)

let test_cmatrix_apply_vs_mul () =
  let a = Cmatrix.init 3 3 (fun i j -> { Complex.re = float_of_int (i + j); im = float_of_int (i - j) }) in
  let b = Cmatrix.init 3 3 (fun i j -> { Complex.re = float_of_int (i * j); im = 1.0 }) in
  let x = Cvec.random ~seed:5 3 in
  let lhs = Cmatrix.apply (Cmatrix.mul a b) x in
  let rhs = Cmatrix.apply a (Cmatrix.apply b x) in
  check cb "assoc" true (Cvec.max_abs_diff lhs rhs < 1e-9)

(* The parallel executor bumps counters on every execution, so the hot
   counter operations must not allocate (no closure, no option). *)
let test_counters_alloc_free () =
  let name = "test.counters_alloc" in
  Counters.incr name;
  Counters.observe name 1.0;
  let words call =
    call ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      call ()
    done;
    Gc.minor_words () -. w0
  in
  check cb "incr allocation-free" true (words (fun () -> Counters.incr name) < 8.0);
  check cb "incr ~by allocation-free" true
    (words (fun () -> Counters.incr ~by:3 name) < 8.0);
  check cb "get allocation-free" true
    (words (fun () -> ignore (Counters.get name : int)) < 8.0);
  check cb "observe allocation-free" true
    (words (fun () -> Counters.observe name 2.5) < 8.0);
  check ci "counted" (1 + 1001 + (3 * 1001)) (Counters.get name);
  match Counters.observation name with
  | None -> Alcotest.fail "observation missing"
  | Some o ->
      check ci "observed count" 1002 o.count;
      check cb "observed sum/max" true (o.sum = 1.0 +. (1001.0 *. 2.5) && o.max = 2.5)

let suite =
  [
    Alcotest.test_case "is_pow2" `Quick test_is_pow2;
    Alcotest.test_case "ilog2" `Quick test_ilog2;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "divisors" `Quick test_divisors;
    Alcotest.test_case "factor_pairs" `Quick test_factor_pairs;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "prime_factors" `Quick test_prime_factors;
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    QCheck_alcotest.to_alcotest prop_factor_pairs_product;
    QCheck_alcotest.to_alcotest prop_prime_factors_product;
    Alcotest.test_case "cvec get/set" `Quick test_cvec_get_set;
    Alcotest.test_case "cvec complex roundtrip" `Quick test_cvec_roundtrip;
    Alcotest.test_case "cvec basis" `Quick test_cvec_basis;
    Alcotest.test_case "cvec scale/add/norm" `Quick test_cvec_ops;
    Alcotest.test_case "cvec blit mismatch" `Quick test_cvec_blit_mismatch;
    Alcotest.test_case "cvec random determinism" `Quick test_cvec_random_deterministic;
    Alcotest.test_case "omega basic values" `Quick test_omega_basic;
    Alcotest.test_case "omega periodicity" `Quick test_omega_periodic;
    Alcotest.test_case "omega_pow reduction" `Quick test_omega_pow;
    Alcotest.test_case "twiddle diagonal" `Quick test_twiddle_diag;
    QCheck_alcotest.to_alcotest prop_omega_unit;
    Alcotest.test_case "dft impulse" `Quick test_dft_impulse;
    Alcotest.test_case "dft constant" `Quick test_dft_constant;
    Alcotest.test_case "dft known values" `Quick test_dft_known_4;
    QCheck_alcotest.to_alcotest prop_idft_roundtrip;
    QCheck_alcotest.to_alcotest prop_dft_linear;
    Alcotest.test_case "dft parseval" `Quick test_dft_parseval;
    Alcotest.test_case "cmatrix identity" `Quick test_cmatrix_identity;
    Alcotest.test_case "cmatrix kron dims" `Quick test_cmatrix_kron_dims;
    Alcotest.test_case "cmatrix kron values" `Quick test_cmatrix_kron_values;
    Alcotest.test_case "cmatrix permutation" `Quick test_cmatrix_perm;
    Alcotest.test_case "cmatrix direct sum" `Quick test_cmatrix_direct_sum;
    Alcotest.test_case "cmatrix apply vs mul" `Quick test_cmatrix_apply_vs_mul;
    Alcotest.test_case "counters allocation-free" `Quick test_counters_alloc_free;
  ]
