(* Translation validation: every optimizer certificate discharged on the
   green path, tampered certificates and witnesses rejected, an injected
   check fault routed to the engine's sequential fallback (never a wrong
   answer), digest-keyed caching shared by clones but not by mutated
   plans, and proof that validation leaves nothing on the execution hot
   path. *)

open Spiral_util
open Spiral_rewrite
open Spiral_codegen
open Spiral_smp
module V = Spiral_validate

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let mc_formula () =
  match
    Derive.multicore_dft ~p:4 ~mu:2
      (Ruletree.Ct (Ruletree.mixed_radix 16, Ruletree.mixed_radix 16))
  with
  | Ok f -> f
  | Error e -> Alcotest.fail (Derive.error_to_string e)

let is_error name = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: tampered certificate was accepted" name

let is_ok name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: valid certificate rejected: %s" name msg

(* ------------------------------------------------------------------ *)
(* Green path: every obligation of a real optimized plan discharges    *)

let test_validate_green () =
  Counters.reset ();
  let plan = Plan.of_formula (mc_formula ()) in
  is_ok "sampled" (V.validate_plan_result ~mode:V.Sampled ~workers:4 plan);
  check cb "plan counted" true (Counters.get "validate.plan" = 1);
  check cb "obligations discharged" true (Counters.get "validate.check" >= 4);
  check ci "no failures" 0 (Counters.get "validate.failed");
  (* a second worker count revalidates only the worker-dependent
     obligations, against the same cached report *)
  is_ok "second worker count"
    (V.validate_plan_result ~mode:V.Sampled ~workers:2 plan);
  check ci "no failures after p=2" 0 (Counters.get "validate.failed")

let test_validate_exhaustive () =
  Counters.reset ();
  let plan = Plan.of_formula (mc_formula ()) in
  is_ok "exhaustive" (V.validate_plan_result ~mode:V.Exhaustive ~workers:4 plan);
  check ci "exhaustive counted" 1 (Counters.get "validate.exhaustive");
  check ci "no failures" 0 (Counters.get "validate.failed")

(* fused explicit-data plans carry non-trivial gather chains; their
   certificate must also discharge *)
let test_validate_fusion_cert () =
  let six =
    match Derive.six_step_dft ~p:2 ~mu:4 ~m:16 ~n:16 with
    | Ok f -> f
    | Error e -> Alcotest.fail (Derive.error_to_string e)
  in
  let plan = Plan.of_formula ~explicit_data:true ~fuse:true six in
  let cert =
    match plan.Plan.fusion_cert with
    | Some c -> c
    | None -> Alcotest.fail "fused plan carries no certificate"
  in
  check cb "fusion actually composed chains" true
    (List.exists (fun c -> c.Optimize.gchain <> []) cert.Optimize.claims);
  is_ok "fusion sampled" (V.check_fusion ~mode:V.Sampled cert);
  is_ok "fusion exhaustive" (V.check_fusion ~mode:V.Exhaustive cert)

(* ------------------------------------------------------------------ *)
(* Tampered certificates must be rejected                              *)

let test_tampered_fusion () =
  let six =
    match Derive.six_step_dft ~p:2 ~mu:4 ~m:16 ~n:16 with
    | Ok f -> f
    | Error e -> Alcotest.fail (Derive.error_to_string e)
  in
  let plan = Plan.of_formula ~explicit_data:true ~fuse:true six in
  let cert = Option.get plan.Plan.fusion_cert in
  (* drop one composed pass from a claim: the coverage obligation
     (every original pass accounted for exactly once) must fail *)
  let dropped =
    {
      cert with
      Optimize.claims =
        List.map
          (fun c ->
            match c.Optimize.gchain with
            | _ :: rest -> { c with Optimize.gchain = rest }
            | [] -> c)
          cert.Optimize.claims;
    }
  in
  is_error "dropped chain entry" (V.check_fusion dropped);
  (* reorder the claims: the per-claim src/shape obligations break *)
  let reordered = { cert with Optimize.claims = List.rev cert.Optimize.claims } in
  is_error "reordered claims" (V.check_fusion reordered);
  (* swap the fused IR for the original: pass counts disagree *)
  let swapped = { cert with Optimize.fused = cert.Optimize.original } in
  is_error "wrong fused IR" (V.check_fusion swapped)

(* Identity claims (nothing composed, the fused pass physically the
   original record) discharge structurally under [Sampled]; any other
   claim, including a copy of the original record, is replayed *)
let test_identity_claims () =
  let plan = Plan.of_formula (mc_formula ()) in
  let cert = Option.get plan.Plan.fusion_cert in
  let claims = cert.Optimize.claims in
  let identity (c : Optimize.fusion_claim) =
    c.Optimize.src <> None && c.Optimize.gchain = [] && c.Optimize.schain = []
  in
  check cb "default compile: every claim is an identity claim" true
    (claims <> [] && List.for_all identity claims);
  Counters.reset ();
  is_ok "identity claims" (V.check_fusion ~mode:V.Sampled cert);
  check ci "one structural discharge per claim" (List.length claims)
    (Counters.get "validate.fusion_identity");
  Counters.reset ();
  is_ok "identity claims, exhaustive" (V.check_fusion ~mode:V.Exhaustive cert);
  check ci "exhaustive replays every claim" 0
    (Counters.get "validate.fusion_identity");
  (* swap fused pass [k] for a copy of itself: an exact copy is not [==]
     to the original, so it is replayed (and passes); a copy whose
     gather differs at one point is replayed and rejected *)
  let k = List.length claims / 2 in
  let with_pass k f =
    {
      cert with
      Optimize.fused =
        {
          cert.Optimize.fused with
          Ir.passes =
            List.mapi (fun j p -> if j = k then f p else p)
              cert.Optimize.fused.Ir.passes;
        };
    }
  in
  Counters.reset ();
  is_ok "exact copy"
    (V.check_fusion ~mode:V.Sampled
       (with_pass k (fun (b : Ir.pass) -> { b with Ir.gather = b.Ir.gather })));
  check ci "the copy is replayed, not discharged" (List.length claims - 1)
    (Counters.get "validate.fusion_identity");
  let tampered =
    with_pass k (fun (b : Ir.pass) ->
        let it0 = b.Ir.count / 2 and l0 = b.Ir.radix - 1 in
        {
          b with
          Ir.gather =
            (fun it l ->
              if it = it0 && l = l0 then b.Ir.gather it l + 1
              else b.Ir.gather it l);
        })
  in
  is_error "copy differing at one point" (V.check_fusion ~mode:V.Sampled tampered);
  is_error "copy differing at one point, exhaustive"
    (V.check_fusion ~mode:V.Exhaustive tampered);
  (* the original record under a claim that says a chain was composed
     into it is replayed too, and the replay catches the mismatch *)
  let six =
    match Derive.six_step_dft ~p:2 ~mu:4 ~m:16 ~n:16 with
    | Ok f -> f
    | Error e -> Alcotest.fail (Derive.error_to_string e)
  in
  let fcert =
    Option.get (Plan.of_formula ~explicit_data:true ~fuse:true six).Plan.fusion_cert
  in
  let orig = Array.of_list fcert.Optimize.original.Ir.passes in
  let unfused =
    {
      fcert with
      Optimize.fused =
        {
          fcert.Optimize.fused with
          Ir.passes =
            List.map2
              (fun (p : Ir.pass) (c : Optimize.fusion_claim) ->
                match c.Optimize.src with
                | Some i when c.Optimize.gchain <> [] -> orig.(i)
                | _ -> p)
              fcert.Optimize.fused.Ir.passes fcert.Optimize.claims;
        };
    }
  in
  is_error "original pass under a composed chain"
    (V.check_fusion ~mode:V.Sampled unfused)

let test_tampered_elision () =
  let plan = Plan.of_formula (mc_formula ()) in
  let workers = 4 in
  let mask, wits = Par_exec.elision_witness ~workers plan in
  check cb "plan elides something at p=4" true (Array.exists Fun.id mask);
  is_ok "untampered claims"
    (V.check_elision_claims ~workers plan (mask, wits));
  (* corrupt one witness's write-set: the re-derivation must disagree *)
  let forged =
    List.map
      (fun (w : Par_exec.boundary_witness) ->
        let writer = Array.copy w.Par_exec.writer in
        writer.(0) <- (writer.(0) + 1) mod workers;
        { w with Par_exec.writer })
      wits
  in
  is_error "forged write-set" (V.check_elision_claims ~workers plan (mask, forged));
  (* claim an elision with no witness at all *)
  is_error "missing witness" (V.check_elision_claims ~workers plan (mask, []));
  (* claim two consecutive elisions: the no-chain rule must fire *)
  let chained = Array.map (fun _ -> true) mask in
  is_error "chained elision"
    (V.check_elision_claims ~workers plan (chained, wits))

let test_tampered_vec_cert () =
  let f = Ruletree.expand (Ruletree.mixed_radix 1024) in
  let _, nu, cert =
    Spiral_fft.Planner.vectorize_formula_certified ~vec:(`Nu 4) f
  in
  check ci "lowering achieved nu=4" 4 nu;
  let cert = Option.get cert in
  is_ok "vec cert" (V.check_vectorization cert);
  (* claim the lowering came from a different-size scalar formula *)
  let wrong_scalar =
    { cert with V.vc_scalar = Ruletree.expand (Ruletree.mixed_radix 512) }
  in
  is_error "dimension mismatch" (V.check_vectorization wrong_scalar);
  (* a vector length below 2 is no lowering at all *)
  is_error "nu < 2" (V.check_vectorization { cert with V.vc_nu = 1 })

let test_split_coverage () =
  let f = Ruletree.expand (Ruletree.mixed_radix 1024) in
  let vf, nu, _ =
    Spiral_fft.Planner.vectorize_formula_certified ~vec:(`Nu 4) f
  in
  check ci "nu=4" 4 nu;
  let plan = Plan.of_formula ~layout:Plan.Split vf in
  is_ok "split coverage sampled"
    (V.check_split_coverage ~mode:V.Sampled ~workers:1 plan);
  is_ok "split coverage exhaustive"
    (V.check_split_coverage ~mode:V.Exhaustive ~workers:1 plan);
  (* an interleaved plan has no split obligations (vacuously Ok) *)
  is_ok "interleaved is vacuous"
    (V.check_split_coverage ~workers:1 (Plan.of_formula f))

(* ------------------------------------------------------------------ *)
(* Fault-injected checks: the engine must route to the fallback        *)

let test_injected_fault_falls_back () =
  Fault.reset ();
  Counters.reset ();
  let derive ~threads ~mu =
    Spiral_fft.Planner.derive_formula ~threads ~mu
      ~tree:(Ruletree.mixed_radix 1024) 1024
  in
  let p = Spiral_fft.Problem.make Spiral_fft.Problem.Dft [ 1024 ] in
  (* a clean plan first, to pin the expected answer *)
  let x = Cvec.random ~seed:41 1024 in
  let want = Naive_dft.dft x in
  Fault.arm ~site:"validate.check" ~after:0 ~times:1 ();
  let eng = Spiral_fft.Engine.plan ~cache:false ~vec:(`Nu 4) ~derive p in
  Fault.reset ();
  check cb "a check reported the injected fault" true
    (Counters.get "validate.failed" > 0);
  check ci "engine took the validation fallback" 1
    (Counters.get "engine.validation_fallback");
  (* the suspect plan never executes: the engine fell back to the
     unfused scalar sequential path *)
  check ci "fallback is scalar" 0 (Spiral_fft.Engine.vectorized eng);
  check ci "fallback is sequential" 1 (Spiral_fft.Engine.threads eng);
  let y = Cvec.create 1024 in
  Spiral_fft.Engine.execute_into eng ~src:x ~dst:y;
  check cb "fallback computes the right answer" true
    (Cvec.max_abs_diff y want < 1e-6);
  Spiral_fft.Engine.destroy eng;
  (* a parallel derivation that fails validation also counts the
     sequential degradation, like any other seq fallback *)
  Counters.reset ();
  Fault.arm ~site:"validate.check" ~after:0 ~times:1 ();
  let eng2 = Spiral_fft.Engine.plan ~cache:false ~threads:2 ~mu:2 ~derive p in
  Fault.reset ();
  check ci "validation fallback counted" 1
    (Counters.get "engine.validation_fallback");
  check ci "seq degradation counted" 1 (Counters.get "engine.seq_fallback");
  check ci "runs on one worker" 1 (Spiral_fft.Engine.threads eng2);
  let y2 = Cvec.create 1024 in
  Spiral_fft.Engine.execute_into eng2 ~src:x ~dst:y2;
  check cb "parallel fallback correct" true (Cvec.max_abs_diff y2 want < 1e-6);
  Spiral_fft.Engine.destroy eng2

(* ------------------------------------------------------------------ *)
(* Caching: clones share discharged certificates, mutants do not       *)

let test_clone_shares_report () =
  Counters.reset ();
  let master = Plan.of_formula (mc_formula ()) in
  is_ok "master" (V.validate_plan_result ~workers:4 master);
  let runs = Counters.get "validate.plan" in
  let checks = Counters.get "validate.check" in
  let clone = Plan.clone master in
  is_ok "clone" (V.validate_plan_result ~workers:4 clone);
  check ci "clone revalidated nothing" runs (Counters.get "validate.plan");
  check ci "clone re-checked nothing" checks (Counters.get "validate.check");
  check ci "clone was a cache hit" 1 (Counters.get "validate.cached");
  (* the clone also inherits the cached elision mask: revalidation ran
     no fresh elision analysis *)
  check cb "elision mask cache shared" true
    (Par_exec.elision_mask ~workers:4 master
    == Par_exec.elision_mask ~workers:4 clone)

let test_mutated_clone_is_stale () =
  Counters.reset ();
  (* a private plan: mutating a clone's pass array writes through the
     shared array, so nothing else may hold this plan *)
  let master = Plan.of_formula (mc_formula ()) in
  is_ok "master" (V.validate_plan_result ~workers:4 master);
  let clone = Plan.clone master in
  let p0 = clone.Plan.passes.(0) in
  clone.Plan.passes.(0) <- { p0 with Plan.mu = Some 64 };
  check ci "no stale report yet" 0 (Counters.get "validate.stale_cert");
  is_ok "mutant revalidates" (V.validate_plan_result ~workers:4 clone);
  check ci "stale certificate detected" 1 (Counters.get "validate.stale_cert");
  check ci "mutant ran a fresh validation" 2 (Counters.get "validate.plan");
  check ci "mutation did not produce a cache hit" 0
    (Counters.get "validate.cached")

(* ------------------------------------------------------------------ *)
(* Validation is plan-time only: the hot path allocates nothing        *)

let alloc_words iters call =
  call ();
  call ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    call ()
  done;
  Gc.minor_words () -. w0

let test_validated_zero_alloc () =
  let n = 1024 in
  let plan = Plan.of_formula (Ruletree.expand (Ruletree.mixed_radix n)) in
  is_ok "sampled" (V.validate_plan_result ~mode:V.Sampled ~workers:1 plan);
  let x = Cvec.random ~seed:51 n and y = Cvec.create n in
  check cb "sampled-validated execute allocation-free" true
    (alloc_words 50 (fun () -> Plan.execute plan x y) < 8.0);
  let paranoid = Plan.of_formula (Ruletree.expand (Ruletree.mixed_radix n)) in
  is_ok "exhaustive"
    (V.validate_plan_result ~mode:V.Exhaustive ~workers:1 paranoid);
  check cb "paranoid-validated execute allocation-free" true
    (alloc_words 50 (fun () -> Plan.execute paranoid x y) < 8.0)

let suite =
  [
    Alcotest.test_case "green path: all obligations discharge" `Quick
      test_validate_green;
    Alcotest.test_case "green path: exhaustive mode" `Quick
      test_validate_exhaustive;
    Alcotest.test_case "fusion certificate discharges" `Quick
      test_validate_fusion_cert;
    Alcotest.test_case "tampered fusion certificate rejected" `Quick
      test_tampered_fusion;
    Alcotest.test_case "identity claims: structural discharge" `Quick
      test_identity_claims;
    Alcotest.test_case "tampered elision claims rejected" `Quick
      test_tampered_elision;
    Alcotest.test_case "tampered vec certificate rejected" `Quick
      test_tampered_vec_cert;
    Alcotest.test_case "split schedule coverage" `Quick test_split_coverage;
    Alcotest.test_case "injected check fault routes to fallback" `Quick
      test_injected_fault_falls_back;
    Alcotest.test_case "clone shares the discharged report" `Quick
      test_clone_shares_report;
    Alcotest.test_case "mutated clone cannot reuse a stale report" `Quick
      test_mutated_clone_is_stale;
    Alcotest.test_case "validated plans execute allocation-free" `Quick
      test_validated_zero_alloc;
  ]
