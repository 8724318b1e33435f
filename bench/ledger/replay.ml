(* Outside replay of a cold dft[n]f plan at p workers: the same stages
   Engine.plan runs, called one at a time through the public modules so
   each can be timed.  The replay is only trusted when it rebuilds the
   engine's plan: its Plan.digest must equal a one-shot compilation of
   the derived formula, its pass listing must match the engine's
   description, and validation must discharge as many obligations
   ("validate.check") as the engine's own cold plan did. *)

open Spiral_util
open Spiral_codegen
module Dft = Spiral_fft.Dft

type stages = {
  derive_ms : float;
  lower_ms : float;
  fuse_ms : float;
  materialize_ms : float;
  validate_ms : float;
  prepare_ms : float;
  first_exec_ms : float;
  engine_ms : float;  (* Dft.plan from an empty registry, timed whole *)
  checks : int;
  engine_checks : int;
  fused : int;  (* passes removed by fusion *)
  faithful : bool;  (* digest, description and check count all agree *)
}

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.ms_since t0)

let once ~threads n =
  let x = Cvec.random ~seed:n n and y = Cvec.create n in
  let tree = Spiral_rewrite.Ruletree.mixed_radix n in
  let (f, p), derive_ms =
    timed (fun () -> Spiral_fft.Planner.derive_formula ~threads ~mu:4 ~tree n)
  in
  let ir, lower_ms = timed (fun () -> Ir.of_formula f) in
  let (fused_ir, cert), fuse_ms =
    timed (fun () -> Optimize.fuse_data_certified ir)
  in
  let plan, materialize_ms =
    timed (fun () ->
        { (Plan.of_ir ~fuse:false fused_ir) with Plan.fusion_cert = Some cert })
  in
  let c0 = Counters.get "validate.check" in
  let verdict, validate_ms =
    timed (fun () -> Spiral_validate.validate_plan_result ~workers:p plan)
  in
  let checks = Counters.get "validate.check" - c0 in
  let pool = if p > 1 then Some (Spiral_smp.Pool_registry.acquire p) else None in
  let prep, prepare_ms =
    timed (fun () -> Option.map (fun pl -> Spiral_smp.Par_exec.prepare pl plan) pool)
  in
  let (), first_exec_ms =
    timed (fun () ->
        match prep with
        | Some pr -> Spiral_smp.Par_exec.execute_safe_prepared pr x y
        | None -> Plan.execute plan x y)
  in
  Option.iter Spiral_smp.Par_exec.release prep;
  Option.iter Spiral_smp.Pool_registry.release pool;
  (* the engine's own cold plan of the same descriptor *)
  Spiral_fft.Engine.reset_registry ();
  let c1 = Counters.get "validate.check" in
  let d, engine_ms = timed (fun () -> Dft.plan ~threads n) in
  let engine_checks = Counters.get "validate.check" - c1 in
  let same_plan =
    String.ends_with ~suffix:(Plan.describe plan) (Dft.description d)
    && Plan.digest plan = Plan.digest (Plan.of_formula f)
  in
  Dft.destroy d;
  {
    derive_ms;
    lower_ms;
    fuse_ms;
    materialize_ms;
    validate_ms;
    prepare_ms;
    first_exec_ms;
    engine_ms;
    checks;
    engine_checks;
    fused = List.length ir.Ir.passes - List.length fused_ir.Ir.passes;
    faithful = Result.is_ok verdict && same_plan && checks = engine_checks;
  }

(* median of each stage over [reps] replays *)
let run ~reps ~threads n =
  let rs = Array.init reps (fun _ -> once ~threads n) in
  let med f = Stats.median (Array.map f rs) in
  {
    derive_ms = med (fun r -> r.derive_ms);
    lower_ms = med (fun r -> r.lower_ms);
    fuse_ms = med (fun r -> r.fuse_ms);
    materialize_ms = med (fun r -> r.materialize_ms);
    validate_ms = med (fun r -> r.validate_ms);
    prepare_ms = med (fun r -> r.prepare_ms);
    first_exec_ms = med (fun r -> r.first_exec_ms);
    engine_ms = med (fun r -> r.engine_ms);
    checks = rs.(0).checks;
    engine_checks = rs.(0).engine_checks;
    fused = rs.(0).fused;
    faithful = Array.for_all (fun r -> r.faithful) rs;
  }

let planning_ms s =
  s.derive_ms +. s.lower_ms +. s.fuse_ms +. s.materialize_ms +. s.validate_ms
  +. s.prepare_ms

let mean ss f = Stats.mean (Array.of_list (List.map f ss))

(* share of the engine's cold planning time the replayed stages account
   for; 1 - coverage is layers.unaccounted_frac of plan_cold *)
let coverage ss = mean ss planning_ms /. mean ss (fun s -> s.engine_ms)

(* per-plan means over the replayed sizes, as ledger metrics *)
let report (o : Outcome.t) (ss : stages list) =
  let mean = mean ss in
  let m = Outcome.metric o in
  m "planner.derive_ms" "ms" (mean (fun s -> s.derive_ms));
  m "ir.lower_ms" "ms" (mean (fun s -> s.lower_ms));
  m "optimize.fuse_ms" "ms" (mean (fun s -> s.fuse_ms));
  m "plan.materialize_ms" "ms" (mean (fun s -> s.materialize_ms));
  m "validate.ms" "ms" (mean (fun s -> s.validate_ms));
  m "par_exec.prepare_ms" "ms" (mean (fun s -> s.prepare_ms));
  m "engine.first_exec_ms" "ms" (mean (fun s -> s.first_exec_ms));
  Outcome.detail o "replay"
    (Json.Obj
       [
         ("faithful", Json.Bool (List.for_all (fun s -> s.faithful) ss));
         ("coverage", Json.Num (coverage ss));
         ("validate_checks", Json.Num (mean (fun s -> float_of_int s.checks)));
         ("fused_passes", Json.Num (mean (fun s -> float_of_int s.fused)));
       ]);
  if not (List.for_all (fun s -> s.faithful) ss) then
    failwith "plan replay did not rebuild the engine's plan"
