open Spiral_util
open Spiral_spl
open Spiral_rewrite
open Ruletree
open Spiral_codegen

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Codelets: every addressing path against the naive DFT.              *)

let cs = Codelet.make_scratch ()

let run_strided (c : Codelet.t) x =
  let r = c.radix in
  let y = Cvec.create r in
  c.strided cs x 0 1 y 0 1;
  y

let run_strided_rev (c : Codelet.t) x =
  (* feed the input reversed via stride -1, then un-reverse *)
  let r = c.radix in
  let y = Cvec.create r in
  c.strided cs x (r - 1) (-1) y (r - 1) (-1);
  y

let run_strided_u (c : Codelet.t) x =
  let r = c.radix in
  let y = Cvec.create r in
  c.strided_u cs x 0 y 0;
  y

let run_indexed (c : Codelet.t) x =
  let r = c.radix in
  let y = Cvec.create r in
  let idx = Array.init r (fun l -> l) in
  c.indexed cs x idx 0 y idx 0;
  y

let run_tw (c : Codelet.t) x tw =
  let r = c.radix in
  let y = Cvec.create r in
  c.strided_tw cs x 0 1 y 0 1 tw 0;
  y

let run_tw_u (c : Codelet.t) x tw =
  let r = c.radix in
  let y = Cvec.create r in
  c.strided_u_tw cs x 0 y 0 tw 0;
  y

let scale_vec x (d : Complex.t array) =
  let n = Cvec.length x in
  let y = Cvec.create n in
  for i = 0 to n - 1 do
    let z = Complex.mul (Cvec.get x i) d.(i) in
    Cvec.set y i z
  done;
  y

let codelet_sizes = [ 1; 2; 3; 4; 5; 6; 7; 8; 11; 16; 31; 32 ]

let test_codelet_strided () =
  List.iter
    (fun r ->
      let c = Codelet.dft r in
      let x = Cvec.random ~seed:r r in
      let want = Naive_dft.dft x in
      check cb (Printf.sprintf "dft%d" r) true
        (Cvec.max_abs_diff (run_strided c x) want < 1e-9);
      (* the monomorphized unit-stride fast path must agree exactly *)
      check cb
        (Printf.sprintf "dft%d unit" r)
        true
        (Cvec.max_abs_diff (run_strided_u c x) (run_strided c x) = 0.0))
    codelet_sizes

let test_codelet_negative_stride () =
  List.iter
    (fun r ->
      let c = Codelet.dft r in
      let x = Cvec.random ~seed:r r in
      (* reversing input and output with stride -1 computes the DFT of the
         reversed vector, scattered reversed *)
      let want =
        let rev = Cvec.create r in
        for i = 0 to r - 1 do
          Cvec.set rev i (Cvec.get x (r - 1 - i))
        done;
        let f = Naive_dft.dft rev in
        let out = Cvec.create r in
        for i = 0 to r - 1 do
          Cvec.set out (r - 1 - i) (Cvec.get f i)
        done;
        out
      in
      check cb (Printf.sprintf "dft%d rev" r) true
        (Cvec.max_abs_diff (run_strided_rev c x) want < 1e-9))
    [ 2; 3; 4; 8 ]

let test_codelet_indexed () =
  List.iter
    (fun r ->
      let c = Codelet.dft r in
      let x = Cvec.random ~seed:(r + 17) r in
      check cb (Printf.sprintf "dft%d idx" r) true
        (Cvec.max_abs_diff (run_indexed c x) (Naive_dft.dft x) < 1e-9))
    codelet_sizes

let test_codelet_indexed_scattered () =
  (* gather through a permutation *)
  let r = 4 in
  let c = Codelet.dft r in
  let x = Cvec.random ~seed:31 r in
  let perm = [| 2; 0; 3; 1 |] in
  let y = Cvec.create r in
  let id = Array.init r (fun l -> l) in
  c.indexed cs x perm 0 y id 0;
  let gathered = Cvec.create r in
  for l = 0 to r - 1 do
    Cvec.set gathered l (Cvec.get x perm.(l))
  done;
  check cb "permuted gather" true
    (Cvec.max_abs_diff y (Naive_dft.dft gathered) < 1e-10)

let test_codelet_twiddled () =
  List.iter
    (fun r ->
      let c = Codelet.dft r in
      let x = Cvec.random ~seed:(r + 5) r in
      let d = Array.init r (fun i -> Twiddle.omega (2 * r) i) in
      let tw = Array.make (2 * r) 0.0 in
      Array.iteri
        (fun i (z : Complex.t) ->
          tw.(2 * i) <- z.re;
          tw.((2 * i) + 1) <- z.im)
        d;
      let want = Naive_dft.dft (scale_vec x d) in
      check cb (Printf.sprintf "dft%d tw" r) true
        (Cvec.max_abs_diff (run_tw c x tw) want < 1e-9);
      check cb
        (Printf.sprintf "dft%d tw unit" r)
        true
        (Cvec.max_abs_diff (run_tw_u c x tw) (run_tw c x tw) = 0.0))
    codelet_sizes

(* Twiddled entry points apply the twiddle inside the kernel's loads;
   they must be bit-identical to scaling into a buffer first and running
   the untwiddled kernel, for any twiddle offset, strides and index
   tables. *)
let staged_scale src tw t0 r addr =
  let buf = Array.make (2 * r) 0.0 in
  for l = 0 to r - 1 do
    let s = addr l in
    let xr = src.(2 * s) and xi = src.((2 * s) + 1) in
    let wr = tw.(2 * (t0 + l)) and wi = tw.((2 * (t0 + l)) + 1) in
    buf.(2 * l) <- (wr *. xr) -. (wi *. xi);
    buf.((2 * l) + 1) <- (wr *. xi) +. (wi *. xr)
  done;
  buf

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_codelet_twiddled_bits () =
  List.iter
    (fun r ->
      let c = Codelet.dft r in
      let n = (3 * r) + 7 in
      let src = Cvec.random ~seed:(r + 40) n in
      let t0 = 5 in
      let tw = Cvec.random ~seed:(r + 41) (t0 + r + 3) in
      let fresh () = Array.make (2 * n) 0.25 in
      (* a nonzero base that keeps all r elements in range *)
      let base stride off = if stride < 0 then n - 1 - off else off in
      List.iter
        (fun (gl, sl) ->
          let g0 = base gl 1 and s0 = base sl 2 in
          let want = fresh () and got = fresh () in
          c.strided cs (staged_scale src tw t0 r (fun l -> g0 + (l * gl))) 0 1
            want s0 sl;
          c.strided_tw cs src g0 gl got s0 sl tw t0;
          check cb (Printf.sprintf "dft%d strided_tw gl=%d sl=%d" r gl sl) true
            (same_bits want got))
        [ (1, 1); (3, 1); (1, 3); (3, 3); (-1, 1); (1, -1); (-1, 3) ];
      let want = fresh () and got = fresh () in
      c.strided cs (staged_scale src tw t0 r (fun l -> 3 + l)) 0 1 want 4 1;
      c.strided_u_tw cs src 3 got 4 tw t0;
      check cb (Printf.sprintf "dft%d strided_u_tw" r) true (same_bits want got);
      (* permuted index tables behind nonzero bases *)
      let gb = 2 and sb = 3 in
      let perm = Array.init n (fun i -> i) in
      let st = Random.State.make [| r |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let gidx = Array.init (gb + r) (fun l -> perm.(max 0 (l - gb))) in
      let sidx = Array.init (sb + r) (fun l -> perm.(n - 1 - max 0 (l - sb))) in
      let staged = Array.make (2 * r) 0.0 in
      c.strided cs (staged_scale src tw t0 r (fun l -> gidx.(gb + l))) 0 1
        staged 0 1;
      let want = fresh () and got = fresh () in
      for l = 0 to r - 1 do
        let d = sidx.(sb + l) in
        want.(2 * d) <- staged.(2 * l);
        want.((2 * d) + 1) <- staged.((2 * l) + 1)
      done;
      c.indexed_tw cs src gidx gb got sidx sb tw t0;
      check cb (Printf.sprintf "dft%d indexed_tw" r) true (same_bits want got))
    codelet_sizes

let alloc_words iters call =
  call ();
  call ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    call ()
  done;
  Gc.minor_words () -. w0

(* Every entry point of every codelet radix is allocation-free on its
   own, not only inside the plans the plan-level guards happen to run. *)
let test_codelet_alloc_free () =
  List.iter
    (fun r ->
      let c = Codelet.dft r in
      let src = Cvec.random ~seed:r (2 * r) and dst = Cvec.create (2 * r) in
      let tw = Cvec.random ~seed:(r + 1) (2 * r) in
      let idx = Array.init r (fun l -> r - 1 - l) in
      List.iter
        (fun (entry, call) ->
          check cb
            (Printf.sprintf "dft%d %s allocation-free" r entry)
            true
            (alloc_words 1000 call < 8.0))
        [
          ("strided", fun () -> c.strided cs src 1 1 dst 0 1);
          ("strided_u", fun () -> c.strided_u cs src 1 dst 0);
          ("strided_tw", fun () -> c.strided_tw cs src 1 1 dst 0 1 tw 1);
          ("strided_u_tw", fun () -> c.strided_u_tw cs src 1 dst 0 tw 1);
          ("indexed", fun () -> c.indexed cs src idx 0 dst idx 0);
          ("indexed_tw", fun () -> c.indexed_tw cs src idx 0 dst idx 0 tw 1);
        ])
    codelet_sizes

(* Concurrent planners fill the codelet cache from several domains; each
   radix must still resolve to one physical instance. *)
let test_codelet_cache_race () =
  let radices = List.init Codelet.max_radix (fun i -> i + 1) in
  let ready = Atomic.make 0 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let st = Random.State.make [| d |] in
            let order =
              List.map (fun r -> (Random.State.bits st, r)) radices
              |> List.sort compare |> List.map snd
            in
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            List.map (fun r -> (r, Codelet.dft r)) order))
  in
  let seen = List.map Domain.join domains in
  List.iter
    (fun r ->
      let c = Codelet.dft r in
      check cb
        (Printf.sprintf "dft%d: one instance across domains" r)
        true
        (List.for_all (fun got -> List.assoc r got == c) seen))
    radices

let test_codelet_flops_sync () =
  (* the SPL cost model and the codelet implementation must agree *)
  List.iter
    (fun r ->
      check ci (Printf.sprintf "flops %d" r) (Cost.leaf_flops r)
        (Codelet.dft r).Codelet.flops)
    [ 1; 2; 3; 4; 5; 8; 16; 32 ]

let test_codelet_wht () =
  List.iter
    (fun r ->
      let c = Codelet.wht r in
      let x = Cvec.random ~seed:r r in
      let want = Cmatrix.apply (Semantics.to_matrix (Formula.WHT r)) x in
      check cb (Printf.sprintf "wht%d" r) true
        (Cvec.max_abs_diff (run_strided c x) want < 1e-9))
    [ 1; 2; 4; 8; 16; 32 ]

let test_codelet_copy () =
  let c = Codelet.copy 4 in
  let x = Cvec.random ~seed:2 4 in
  check cb "copy" true (Cvec.max_abs_diff (run_strided c x) x < 1e-15)

let test_codelet_bad_radix () =
  Alcotest.check_raises "radix 0"
    (Invalid_argument "Codelet.dft: radix 0 outside [1, 32]") (fun () ->
      ignore (Codelet.dft 0));
  Alcotest.check_raises "radix 33"
    (Invalid_argument "Codelet.dft: radix 33 outside [1, 32]") (fun () ->
      ignore (Codelet.dft 33))

(* ------------------------------------------------------------------ *)
(* IR and plans                                                        *)

let plan_matches_naive ?(tol_scale = 1e-6) ?explicit_data f =
  let n = Formula.dim f in
  let plan = Plan.of_formula ?explicit_data f in
  let x = Cvec.random ~seed:n n in
  let y = Cvec.create n in
  Plan.execute plan x y;
  Cvec.max_abs_diff y (Naive_dft.dft x) < tol_scale *. float_of_int n

let test_plan_trees () =
  List.iter
    (fun tree ->
      check cb (Ruletree.to_string tree) true
        (plan_matches_naive (Ruletree.expand tree)))
    [ Ruletree.Leaf 16;
      Ct (Leaf 2, Leaf 8);
      Ct (Ct (Leaf 2, Leaf 4), Ct (Leaf 8, Leaf 2));
      Ruletree.mixed_radix 512;
      Ruletree.balanced 720;
      Ruletree.random ~seed:21 480;
      Ruletree.right_expanded ~radix:4 1024;
      Ruletree.left_expanded ~radix:8 512 ]

let test_plan_multicore () =
  List.iter
    (fun (p, mu, m, n) ->
      let tree = Ruletree.Ct (Ruletree.mixed_radix m, Ruletree.mixed_radix n) in
      match Derive.multicore_dft ~p ~mu tree with
      | Error e -> Alcotest.fail (Derive.error_to_string e)
      | Ok f -> check cb "multicore plan" true (plan_matches_naive f))
    [ (2, 2, 8, 8); (4, 4, 16, 32); (3, 2, 12, 12) ]

let test_plan_explicit_data () =
  match Derive.six_step_dft ~p:2 ~mu:2 ~m:8 ~n:8 with
  | Error e -> Alcotest.fail (Derive.error_to_string e)
  | Ok f ->
      check cb "explicit passes correct" true (plan_matches_naive ~explicit_data:true f);
      let merged = Plan.of_formula f in
      let explicit = Plan.of_formula ~explicit_data:true f in
      check cb "merging reduces passes" true
        (Array.length merged.Plan.passes < Array.length explicit.Plan.passes);
      (* six-step: 3 explicit transpositions + 1 explicit twiddle pass +
         2 compute stages = 6 *)
      check ci "six-step explicit pass count" 6 (Array.length explicit.Plan.passes)

let test_plan_merging_pass_count () =
  (* 2-factor Cooley-Tukey merges to exactly 2 passes: the L, D factors
     disappear into gather/twiddle *)
  let plan = Plan.of_formula (Ruletree.expand (Ct (Leaf 8, Leaf 8))) in
  check ci "2 passes" 2 (Array.length plan.Plan.passes);
  (* pass 1 carries the twiddles *)
  check cb "twiddle merged" true (plan.Plan.passes.(1).Plan.tw <> None);
  check cb "no twiddle on pass 0" true (plan.Plan.passes.(0).Plan.tw = None)

let test_plan_strided_addressing () =
  let plan = Plan.of_formula (Ruletree.expand (Ruletree.mixed_radix 4096)) in
  Array.iteri
    (fun k (p : Plan.pass) ->
      match p.Plan.addr with
      | Plan.Strided _ -> ()
      | Plan.Indexed _ -> Alcotest.failf "pass %d fell back to indexed" k)
    plan.Plan.passes

let test_plan_pure_perm () =
  (* a bare stride permutation compiles to a single merged data pass *)
  let f = Formula.Perm (Perm.L (16, 4)) in
  let plan = Plan.of_formula f in
  check ci "one pass" 1 (Array.length plan.Plan.passes);
  let x = Cvec.random ~seed:4 16 in
  let y = Cvec.create 16 in
  Plan.execute plan x y;
  check cb "applies sigma" true
    (Cvec.max_abs_diff y (Semantics.apply f x) < 1e-12)

let test_plan_pure_diag () =
  let f = Formula.twiddle 4 4 in
  let plan = Plan.of_formula f in
  let x = Cvec.random ~seed:8 16 in
  let y = Cvec.create 16 in
  Plan.execute plan x y;
  check cb "diag pass" true (Cvec.max_abs_diff y (Semantics.apply f x) < 1e-12)

let test_plan_perm_diag_chain () =
  (* data-only composition merges into one pass *)
  let f =
    Formula.compose
      [ Formula.l_perm 16 4; Formula.twiddle 4 4; Formula.l_perm 16 2 ]
  in
  let plan = Plan.of_formula f in
  check ci "merged to one pass" 1 (Array.length plan.Plan.passes);
  let x = Cvec.random ~seed:12 16 in
  let y = Cvec.create 16 in
  Plan.execute plan x y;
  check cb "semantics" true
    (Cvec.max_abs_diff y (Semantics.apply f x) < 1e-10)

let test_plan_wht () =
  match Derive.multicore_wht ~p:2 ~mu:2 ~m:8 ~n:8 with
  | Error e -> Alcotest.fail (Derive.error_to_string e)
  | Ok f ->
      let plan = Plan.of_formula f in
      let x = Cvec.random ~seed:3 64 in
      let y = Cvec.create 64 in
      Plan.execute plan x y;
      check cb "wht plan" true
        (Cvec.max_abs_diff y (Cmatrix.apply (Semantics.to_matrix (Formula.WHT 64)) x)
         < 1e-9)

let prop_plan_linear =
  QCheck.Test.make ~name:"compiled plans are linear" ~count:20
    QCheck.(int_range 2 64)
    (fun seed ->
      let tree = Ruletree.random ~seed 64 in
      let plan = Plan.of_formula (Ruletree.expand tree) in
      let x = Cvec.random ~seed 64 and y = Cvec.random ~seed:(seed + 99) 64 in
      let run v =
        let out = Cvec.create 64 in
        Plan.execute plan v out;
        out
      in
      Cvec.max_abs_diff (run (Cvec.add x y)) (Cvec.add (run x) (run y)) < 1e-8)

let prop_random_tree_plans =
  QCheck.Test.make ~name:"plans of random ruletrees match naive DFT" ~count:25
    QCheck.(pair (int_range 1 10000) (int_range 4 256))
    (fun (seed, n) ->
      (* sizes with a prime factor beyond the codelet range are rejected at
         planning time; skip them here *)
      QCheck.assume
        (List.for_all (fun f -> f <= Ruletree.leaf_max)
           (Int_util.prime_factors n));
      let tree = Ruletree.random ~seed n in
      (try Ruletree.validate tree with Invalid_argument _ -> QCheck.assume_fail ());
      plan_matches_naive (Ruletree.expand tree))

let test_ir_validate () =
  let ir = Ir.of_formula (Ruletree.expand (Ct (Leaf 4, Leaf 8))) in
  Ir.validate ir;
  check ci "total flops positive" (Ir.total_flops ir)
    (Plan.total_flops (Plan.of_ir ir))

let test_ir_unsupported () =
  (try
     ignore (Ir.of_formula (Formula.DFT 64));
     Alcotest.fail "DFT_64 leaf exceeds max radix"
   with Ir.Unsupported _ -> ());
  try
    ignore (Ir.of_formula (Formula.DirectSum [ Formula.DFT 2; Formula.DFT 2 ]));
    Alcotest.fail "general direct sums are unsupported"
  with Ir.Unsupported _ -> ()

let test_plan_execute_validation () =
  let plan = Plan.of_formula (Formula.DFT 4) in
  Alcotest.check_raises "short input"
    (Invalid_argument "Plan.execute: wrong vector length") (fun () ->
      Plan.execute plan (Cvec.create 3) (Cvec.create 4))

(* ------------------------------------------------------------------ *)
(* C emission                                                          *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let mc_plan_64 () =
  match Derive.multicore_dft ~p:2 ~mu:2 (Ct (Leaf 8, Leaf 8)) with
  | Ok f -> Plan.of_formula f
  | Error e -> Alcotest.fail (Derive.error_to_string e)

let test_cemit_markers () =
  let plan = mc_plan_64 () in
  let omp = C_emit.to_c ~backend:`OpenMP plan in
  check cb "omp pragma" true (contains omp "#pragma omp parallel for");
  let pthr = C_emit.to_c ~backend:`Pthreads plan in
  check cb "pthread include" true (contains pthr "#include <pthread.h>");
  check cb "barrier" true (contains pthr "barrier_wait");
  let seq = C_emit.to_c ~backend:`None plan in
  check cb "no pragma in seq" false (contains seq "#pragma omp");
  check cb "self test" true (contains seq "max_abs_err")

let test_cemit_balanced_braces () =
  let src = C_emit.to_c (mc_plan_64 ()) in
  let depth = ref 0 in
  String.iter
    (fun c ->
      if c = '{' then incr depth else if c = '}' then decr depth;
      if !depth < 0 then Alcotest.fail "unbalanced braces")
    src;
  check ci "balanced" 0 !depth

let test_cemit_size_limit () =
  let plan = Plan.of_formula (Formula.DFT 2) in
  ignore (C_emit.to_c plan);
  (* limit guard *)
  let big = Plan.of_formula (Ruletree.expand (Ruletree.mixed_radix 32768)) in
  try
    ignore (C_emit.to_c big);
    Alcotest.fail "should refuse n > limit"
  with Invalid_argument _ -> ()

let gcc_available =
  lazy (Sys.command "gcc --version > /dev/null 2>&1" = 0)

let compile_and_run name src cflags =
  let dir = Filename.get_temp_dir_name () in
  let cfile = Filename.concat dir ("spiral_test_" ^ name ^ ".c") in
  let exe = Filename.concat dir ("spiral_test_" ^ name) in
  let oc = open_out cfile in
  output_string oc src;
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf "gcc -O2 %s -o %s %s -lm > /dev/null 2>&1" cflags exe cfile)
  in
  if rc <> 0 then Alcotest.failf "gcc failed for %s" name;
  let rc = Sys.command (Printf.sprintf "%s > /dev/null 2>&1" exe) in
  check ci (name ^ " self-test exit code") 0 rc

let test_cemit_compile_seq () =
  if not (Lazy.force gcc_available) then ()
  else
    compile_and_run "seq"
      (C_emit.to_c (Plan.of_formula (Ruletree.expand (Ruletree.mixed_radix 128))))
      ""

let test_cemit_compile_omp () =
  if not (Lazy.force gcc_available) then ()
  else compile_and_run "omp" (C_emit.to_c ~backend:`OpenMP (mc_plan_64 ())) "-fopenmp"

let test_cemit_compile_pthreads () =
  if not (Lazy.force gcc_available) then ()
  else
    compile_and_run "pthr" (C_emit.to_c ~backend:`Pthreads (mc_plan_64 ())) "-pthread"

let test_plan_clone_concurrent () =
  (* two domains execute clones of the same plan concurrently; results
     must match the original *)
  let plan = Plan.of_formula (Ruletree.expand (Ruletree.mixed_radix 256)) in
  let x1 = Cvec.random ~seed:1 256 and x2 = Cvec.random ~seed:2 256 in
  let w1 = Cvec.create 256 and w2 = Cvec.create 256 in
  Plan.execute plan x1 w1;
  Plan.execute plan x2 w2;
  let c1 = Plan.clone plan and c2 = Plan.clone plan in
  let y1 = Cvec.create 256 and y2 = Cvec.create 256 in
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to 50 do
          Plan.execute c1 x1 y1
        done)
  in
  for _ = 1 to 50 do
    Plan.execute c2 x2 y2
  done;
  Domain.join d;
  check cb "clone 1" true (Cvec.max_abs_diff y1 w1 = 0.0);
  check cb "clone 2" true (Cvec.max_abs_diff y2 w2 = 0.0)

let test_cemit_vectorized_formula () =
  (* vectorized formulas go through the same C backend *)
  match Derive.short_vector_dft ~nu:2 (Ct (Leaf 8, Leaf 8)) with
  | Error e -> Alcotest.fail (Derive.error_to_string e)
  | Ok f ->
      let src = C_emit.to_c (Plan.of_formula f) in
      check cb "self test present" true (contains src "max_abs_err");
      if Lazy.force gcc_available then compile_and_run "vec" src ""

let test_cemit_compile_pthreads_p4 () =
  if not (Lazy.force gcc_available) then ()
  else
    match
      Derive.multicore_dft ~p:4 ~mu:2
        (Ct (Ruletree.mixed_radix 16, Ruletree.mixed_radix 16))
    with
    | Error e -> Alcotest.fail (Derive.error_to_string e)
    | Ok f ->
        compile_and_run "pthr4"
          (C_emit.to_c ~backend:`Pthreads (Plan.of_formula f))
          "-pthread"

let test_cemit_compile_generic_radix () =
  if not (Lazy.force gcc_available) then ()
  else
    compile_and_run "gen"
      (C_emit.to_c (Plan.of_formula (Ruletree.expand (Ruletree.balanced 360))))
      ""

(* -- SIMD emission ----------------------------------------------------- *)

(* [gcc -mavx2 ...] may be unsupported (non-x86 hosts): probe each flag
   set with an empty translation unit before attempting the real build *)
let cflags_supported flags =
  Lazy.force gcc_available
  && Sys.command
       (Printf.sprintf
          "echo 'int main(void){return 0;}' | gcc -O2 %s -x c - -o /dev/null \
           > /dev/null 2>&1"
          flags)
     = 0

let vec_plan_64 () =
  match Derive.multicore_vector_dft ~p:2 ~mu:2 ~nu:2 (Ct (Leaf 8, Leaf 8)) with
  | Ok f -> Plan.of_formula f
  | Error e -> Alcotest.fail (Derive.error_to_string e)

let test_cemit_simd_markers () =
  let plan = vec_plan_64 () in
  let avx = C_emit.to_c ~backend:`OpenMP ~simd:`AVX2 plan in
  check cb "immintrin" true (contains avx "immintrin.h");
  check cb "avx2 loads" true (contains avx "_mm256_loadu_pd");
  check cb "omp composes with simd" true (contains avx "#pragma omp parallel for");
  check cb "self test" true (contains avx "max_abs_err");
  let sse = C_emit.to_c ~simd:`SSE2 plan in
  check cb "emmintrin" true (contains sse "emmintrin.h");
  check cb "sse2 loads" true (contains sse "_mm_loadu_pd");
  let neon = C_emit.to_c ~simd:`NEON plan in
  check cb "arm_neon" true (contains neon "arm_neon.h");
  check cb "neon loads" true (contains neon "vld1q_f64");
  let gen = C_emit.to_c ~simd:`Generic plan in
  check cb "generic vector ext" true (contains gen "__attribute__((vector_size");
  check cb "no intrinsics headers in generic" false (contains gen "immintrin.h")

let test_cemit_compile_simd_avx2 () =
  if not (cflags_supported "-mavx2 -fopenmp") then ()
  else
    compile_and_run "avx2"
      (C_emit.to_c ~backend:`OpenMP ~simd:`AVX2 (vec_plan_64 ()))
      "-mavx2 -fopenmp"

let test_cemit_compile_simd_sse2 () =
  if not (cflags_supported "-msse2") then ()
  else compile_and_run "sse2" (C_emit.to_c ~simd:`SSE2 (vec_plan_64 ())) "-msse2"

let test_cemit_compile_simd_generic () =
  if not (Lazy.force gcc_available) then ()
  else compile_and_run "gvec" (C_emit.to_c ~simd:`Generic (vec_plan_64 ())) ""

let test_cemit_compile_simd_pthreads_large () =
  (* a bigger tandem: smp(2,4) x vec(2) for DFT_4096 under pthreads *)
  if not (cflags_supported "-mavx2 -pthread") then ()
  else
    match
      Derive.multicore_vector_dft ~p:2 ~mu:4 ~nu:2
        (Ct (Ruletree.mixed_radix 64, Ruletree.mixed_radix 64))
    with
    | Error e -> Alcotest.fail (Derive.error_to_string e)
    | Ok f ->
        compile_and_run "avx2pthr"
          (C_emit.to_c ~backend:`Pthreads ~simd:`AVX2 (Plan.of_formula f))
          "-mavx2 -pthread"

let suite =
  [
    Alcotest.test_case "codelets: cache race" `Quick test_codelet_cache_race;
    Alcotest.test_case "codelets: strided" `Quick test_codelet_strided;
    Alcotest.test_case "codelets: negative stride" `Quick test_codelet_negative_stride;
    Alcotest.test_case "codelets: indexed" `Quick test_codelet_indexed;
    Alcotest.test_case "codelets: permuted gather" `Quick test_codelet_indexed_scattered;
    Alcotest.test_case "codelets: twiddled load" `Quick test_codelet_twiddled;
    Alcotest.test_case "codelets: twiddled load bit-identical" `Quick
      test_codelet_twiddled_bits;
    Alcotest.test_case "codelets: entry points allocation-free" `Quick
      test_codelet_alloc_free;
    Alcotest.test_case "codelets: flops = cost model" `Quick test_codelet_flops_sync;
    Alcotest.test_case "codelets: WHT" `Quick test_codelet_wht;
    Alcotest.test_case "codelets: copy" `Quick test_codelet_copy;
    Alcotest.test_case "codelets: radix bounds" `Quick test_codelet_bad_radix;
    Alcotest.test_case "plans: tree battery" `Quick test_plan_trees;
    Alcotest.test_case "plans: multicore formulas" `Quick test_plan_multicore;
    Alcotest.test_case "plans: explicit data passes" `Quick test_plan_explicit_data;
    Alcotest.test_case "plans: merging pass count" `Quick test_plan_merging_pass_count;
    Alcotest.test_case "plans: strided addressing" `Quick test_plan_strided_addressing;
    Alcotest.test_case "plans: pure permutation" `Quick test_plan_pure_perm;
    Alcotest.test_case "plans: pure diagonal" `Quick test_plan_pure_diag;
    Alcotest.test_case "plans: data-only chain merges" `Quick test_plan_perm_diag_chain;
    Alcotest.test_case "plans: WHT" `Quick test_plan_wht;
    QCheck_alcotest.to_alcotest prop_plan_linear;
    QCheck_alcotest.to_alcotest prop_random_tree_plans;
    Alcotest.test_case "IR: validate" `Quick test_ir_validate;
    Alcotest.test_case "IR: unsupported constructs" `Quick test_ir_unsupported;
    Alcotest.test_case "plans: execute validation" `Quick test_plan_execute_validation;
    Alcotest.test_case "C: backend markers" `Quick test_cemit_markers;
    Alcotest.test_case "C: balanced braces" `Quick test_cemit_balanced_braces;
    Alcotest.test_case "C: size limit" `Quick test_cemit_size_limit;
    Alcotest.test_case "C: compile+run sequential" `Slow test_cemit_compile_seq;
    Alcotest.test_case "C: compile+run OpenMP" `Slow test_cemit_compile_omp;
    Alcotest.test_case "C: compile+run pthreads" `Slow test_cemit_compile_pthreads;
    Alcotest.test_case "C: compile+run generic radix" `Slow test_cemit_compile_generic_radix;
    Alcotest.test_case "plans: clone for concurrency" `Quick test_plan_clone_concurrent;
    Alcotest.test_case "C: vectorized formula" `Slow test_cemit_vectorized_formula;
    Alcotest.test_case "C: pthreads p=4" `Slow test_cemit_compile_pthreads_p4;
    Alcotest.test_case "C: SIMD markers" `Quick test_cemit_simd_markers;
    Alcotest.test_case "C: compile+run AVX2+OpenMP" `Slow
      test_cemit_compile_simd_avx2;
    Alcotest.test_case "C: compile+run SSE2" `Slow test_cemit_compile_simd_sse2;
    Alcotest.test_case "C: compile+run generic SIMD" `Slow
      test_cemit_compile_simd_generic;
    Alcotest.test_case "C: compile+run AVX2+pthreads 4096" `Slow
      test_cemit_compile_simd_pthreads_large;
  ]
