(* The three engine workloads: one caller, closed loop, through the
   library's public front-ends (Dft, Dft2d).  Every output is checked
   against a reference computed at set-up, outside the timed region. *)

open Spiral_util
open Spiral_rewrite
open Spiral_codegen
module Dft = Spiral_fft.Dft
module Dft2d = Spiral_fft.Dft2d

type spec = Dft of int | Batch2d of { rows : int; cols : int; batch : int }

let elems = function Dft n -> n | Batch2d { rows; cols; _ } -> rows * cols

(* transforms one operation runs *)
let transforms = function Dft _ -> 1 | Batch2d { batch; _ } -> batch
let tol spec = Check.tolerance (elems spec)

type data = { srcs : Cvec.t array; refs : Cvec.t array; dsts : Cvec.t array }

(* inputs cycle through a few seeded vectors (Dft) or one seeded batch
   of images (Batch2d) *)
let make_data ~seed spec =
  match spec with
  | Dft n ->
      let srcs =
        Array.init 4 (fun slot -> Check.random_cvec ~seed ~tag:"dft" ~slot n)
      in
      { srcs; refs = Check.dft_refs n srcs; dsts = [| Cvec.create n |] }
  | Batch2d { rows; cols; batch } ->
      let srcs =
        Array.init batch (fun slot ->
            Check.random_cvec ~seed ~tag:"dft2d" ~slot (rows * cols))
      in
      {
        srcs;
        refs = Check.dft2d_refs ~rows ~cols srcs;
        dsts = Array.init batch (fun _ -> Cvec.create (rows * cols));
      }

type planned = {
  slots : int;
  run : int -> unit;  (* one operation on input slot [i] *)
  err : int -> float;  (* relative error of slot [i]'s latest output *)
  destroy : unit -> unit;
}

let plan ?variant ~threads spec d =
  match spec with
  | Dft n ->
      let p = Dft.plan ~threads n in
      let dst = d.dsts.(0) in
      {
        slots = Array.length d.srcs;
        run = (fun i -> Dft.execute_into p ~src:d.srcs.(i) ~dst);
        err = (fun i -> Check.rel_err dst d.refs.(i));
        destroy = (fun () -> Dft.destroy p);
      }
  | Batch2d { rows; cols; batch } ->
      let p = Dft2d.plan ~threads ?variant ~rows ~cols () in
      let jobs = Array.init batch (fun j -> (d.srcs.(j), d.dsts.(j))) in
      {
        slots = 1;
        run = (fun _ -> Dft2d.execute_many p jobs);
        err =
          (fun _ ->
            let e = ref 0.0 in
            for j = 0 to batch - 1 do
              e := Float.max !e (Check.rel_err d.dsts.(j) d.refs.(j))
            done;
            !e);
        destroy = (fun () -> Dft2d.destroy p);
      }

let now = Clock.now

(* Cold set-up as a user pays it: plan (pool creation and, for Dft2d's
   Auto variant, its measured shoot-out) and the first call.  Returns
   (total, plan-only) seconds. *)
let cold_setup ~seed spec =
  let d = make_data ~seed spec in
  let t0 = now () in
  let p = plan ~threads:2 spec d in
  let t1 = now () in
  p.run 0;
  let t2 = now () in
  if not (Check.ok ~n:(elems spec) (p.err 0)) then
    failwith "cold set-up: first output is wrong";
  p.destroy ();
  (Clock.secs (t2 - t0), Clock.secs (t1 - t0))

(* One closed-loop round of [round_ns]: every call timed on its own,
   every output checked outside the timed region.  [drain] runs after
   every [every] calls (the traced run empties its rings there). *)
let round ?(every = max_int) ?(drain = ignore) (o : Outcome.t) samples ~tol
    ~round_ns (p : planned) =
  Stats.Samples.clear samples;
  let t_end = now () + round_ns in
  let i = ref 0 in
  while now () < t_end do
    let slot = !i mod p.slots in
    (match
       let t0 = now () in
       p.run slot;
       now () - t0
     with
    | dt ->
        Stats.Samples.add samples dt;
        Outcome.checked o ~tol (p.err slot)
    | exception _ -> Outcome.failed_op o);
    incr i;
    if !i mod every = 0 then drain ()
  done

type round_stats = { p50 : float; tail : float; rps : float }

let summarize samples =
  let us = Stats.sorted (Stats.Samples.to_us samples) in
  {
    p50 = Stats.quantile_sorted us 0.5;
    tail = Stats.quantile_sorted us 0.99;
    rps = float_of_int (Array.length us) /. Clock.secs (Stats.Samples.total_ns samples);
  }

let warm (p : planned) =
  let t_end = now () + 200_000_000 in
  while now () < t_end do
    p.run 0
  done

(* Untraced run: the end-to-end metrics. *)
let run ~seed ~rounds ~round_s spec (o : Outcome.t) =
  let d = make_data ~seed spec in
  let p = plan ~threads:2 spec d in
  warm p;
  let samples = Stats.Samples.create () in
  let tol = tol spec in
  let st =
    Speed.around rounds (fun _ ->
        round o samples ~tol ~round_ns:(int_of_float (round_s *. 1e9)) p;
        summarize samples)
  in
  p.destroy ();
  (* A percentile of calls this short leaves out the milliseconds for
     which the hypervisor takes a CPU away, and a rate keeps them, so each
     is scaled by the kernel's reading of the same kind. *)
  let readings = Array.map snd st and pick f = Array.map (fun (s, _) -> f s) st in
  let call = Array.map (fun r -> r.Speed.call_us) readings
  and wall = Array.map (fun r -> r.Speed.wall_us) readings in
  Outcome.speed_rounds o "" readings;
  Outcome.latency_rounds o "latency_us_p50" ~ref_us:call (pick (fun s -> s.p50));
  Outcome.latency_rounds o "latency_us_tail" ~ref_us:call (pick (fun s -> s.tail));
  Outcome.throughput_rounds o "throughput_rps" ~ref_us:wall (pick (fun s -> s.rps));
  Outcome.detail o "tail_percentile" (Json.Num 99.0)

(* ---- the traced run's extra phases ---- *)

(* Fastest time of each candidate over 3 interleaved passes, so a host
   regime shift slows every candidate alike. *)
let shootout (fs : (unit -> unit) array) =
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to 3 do
    Array.iteri (fun i f -> best.(i) <- Float.min best.(i) (Clock.time_us ~loop_s:0.01 f)) fs
  done;
  best

(* candidate 0 against the fastest of all *)
let regret fs =
  let best = shootout fs in
  best.(0) /. Array.fold_left Float.min infinity best

let log2i n =
  let rec go l m = if m >= n then l else go (l + 1) (2 * m) in
  go 0 1

(* Planner regret at p=1: the engine's own plan against the sequential
   trees the search space offers (mixed-radix, right-expanded radix 8,
   balanced) and the fused six-step plan. *)
let regret_p1 n =
  let x = Cvec.random ~seed:n n and y = Cvec.create n in
  Dft.with_plan ~threads:1 n (fun p ->
      let trees =
        [ Ruletree.mixed_radix n; Ruletree.right_expanded ~radix:8 n; Ruletree.balanced n ]
      in
      let plans = List.map (fun t -> Plan.of_formula (Ruletree.expand t)) trees in
      let plans =
        if log2i n mod 2 = 0 then
          let half = 1 lsl (log2i n / 2) in
          match Derive.six_step_dft ~p:2 ~mu:4 ~m:half ~n:half with
          | Ok f -> Plan.of_formula ~explicit_data:true ~fuse:true f :: plans
          | Error _ -> plans
        else plans
      in
      regret
        (Array.of_list
           ((fun () -> Dft.execute_into p ~src:x ~dst:y)
           :: List.map (fun pl () -> Plan.execute pl x y) plans)))

(* Planner regret at p=2: the engine's plan against every multicore top
   split m * (n/m) with (p mu) | m, n/m and m within 4x of sqrt n. *)
let regret_p2 n =
  let x = Cvec.random ~seed:n n and y = Cvec.create n in
  let sqrt_n = 1 lsl ((log2i n + 1) / 2) in
  let q = 8 in
  let rec splits m acc =
    if m > n / q then acc
    else
      splits (2 * m)
        (if n mod m = 0 && (n / m) mod q = 0 && 4 * m >= sqrt_n && m <= 4 * sqrt_n
         then m :: acc
         else acc)
  in
  let pool = Spiral_smp.Pool_registry.acquire 2 in
  let preps =
    List.filter_map
      (fun m ->
        match
          Derive.multicore_dft ~p:2 ~mu:4
            (Ruletree.Ct (Ruletree.mixed_radix m, Ruletree.mixed_radix (n / m)))
        with
        | Ok f -> Some (Spiral_smp.Par_exec.prepare pool (Plan.of_formula f))
        | Error _ -> None)
      (splits q [])
  in
  let r =
    Dft.with_plan ~threads:2 n (fun p ->
        regret
          (Array.of_list
             ((fun () -> Dft.execute_into p ~src:x ~dst:y)
             :: List.map (fun pr () -> Spiral_smp.Par_exec.execute_prepared pr x y) preps)))
  in
  List.iter Spiral_smp.Par_exec.release preps;
  Spiral_smp.Pool_registry.release pool;
  r

(* Dft2d's Auto variant against the two explicit schedules it chooses
   from: (chosen time) / (faster explicit time). *)
let auto_regret spec d =
  let ps =
    List.map
      (fun variant -> plan ?variant ~threads:2 spec d)
      [ None; Some Dft2d.Strided; Some Dft2d.Tiled ]
  in
  let best = shootout (Array.of_list (List.map (fun p () -> p.run 0) ps)) in
  List.iter (fun p -> p.destroy ()) ps;
  best.(0) /. Float.min best.(1) best.(2)

let trace_capacity = 1 lsl 16

(* Traced run: the per-layer ledger of one engine workload.  Three
   interleaved triples of rounds — untraced, traced, and the p=1 twin of
   the same descriptor — so tracing overhead and parallel speed-up are
   measured against neighbours in time. *)
let run_traced ~seed ~round_s ~trace_file ~setup_plan_s spec (o : Outcome.t) =
  let d = make_data ~seed spec in
  let tol = tol spec in
  let p = plan ~threads:2 spec d and seq = plan ~threads:1 spec d in
  warm p;
  warm seq;
  let samples = Stats.Samples.create () in
  let round_ns = int_of_float (round_s *. 1e9) in
  let a = Layers.acc () and dropped = ref 0 and lat_ns = ref 0 and lat_n = ref 0 in
  let snap = Layers.snapshot Layers.runtime_counters and gc = Layers.gc () in
  let drain () =
    dropped := !dropped + Trace.dropped ();
    List.iter (Layers.add a) (Layers.ops ());
    Trace.clear ()
  in
  (* calls per drain, sized from one call's events so rings never wrap *)
  let every =
    Trace.enable ~workers:2 ~capacity:trace_capacity ();
    p.run 0;
    let per_op = List.length (Trace.events ()) in
    Trace.disable ();
    Trace.clear ();
    max 1 (trace_capacity / (2 * max 1 per_op))
  in
  let p50 () = (summarize samples).p50 in
  let triples =
    Array.init 3 (fun _ ->
        Layers.gc_measured gc o (fun () -> round o samples ~tol ~round_ns p);
        let untraced = p50 () in
        Trace.enable ~workers:2 ~capacity:trace_capacity ();
        round ~every ~drain o samples ~tol ~round_ns p;
        drain ();
        Trace.disable ();
        lat_ns := !lat_ns + Stats.Samples.total_ns samples;
        lat_n := !lat_n + Stats.Samples.length samples;
        let traced = p50 () in
        round o samples ~tol ~round_ns seq;
        (untraced, traced, p50 ()))
  in
  (* a short traced stretch for the Perfetto file *)
  Trace.enable ~workers:2 ~capacity:trace_capacity ();
  round ~every ~drain:Trace.disable o samples ~tol ~round_ns:(round_ns / 10) p;
  Trace.disable ();
  Out_channel.with_open_bin trace_file (fun oc -> output_string oc (Trace.to_chrome_json ()));
  Trace.clear ();
  p.destroy ();
  seq.destroy ();
  let pick f = Array.map f triples in
  let untraced = pick (fun (u, _, _) -> u) and seq_p50 = pick (fun (_, _, s) -> s) in
  Layers.report_overhead o ~untraced ~traced:(pick (fun (_, t, _) -> t));
  Outcome.rounds o "seq_p50_us" seq_p50;
  Layers.report o a;
  Layers.report_counters o snap;
  Layers.report_gc o gc;
  let m = Outcome.metric o in
  let passes_per_op = Layers.per_op a a.passes_n in
  m "plan.passes" "count" (passes_per_op /. float_of_int (transforms spec));
  m "plan.bytes_computed" "B" (passes_per_op *. 32.0 *. float_of_int (elems spec));
  let traced_mean_us = float_of_int !lat_ns /. float_of_int (max 1 !lat_n) /. 1e3 in
  m "layers.unaccounted_frac" "ratio" (1.0 -. (Layers.accounted_us a /. traced_mean_us));
  m "trace.dropped" "count" (float_of_int !dropped);
  let seq = Stats.median seq_p50 in
  m "kernel.seq_us_p50" "us" seq;
  m "par_exec.speedup" "ratio" (seq /. Stats.median untraced);
  match spec with
  | Dft n ->
      m "dp.regret_p1" "ratio" (regret_p1 n);
      m "dp.regret_p2" "ratio" (regret_p2 n)
  | Batch2d _ ->
      m "dft2d.auto_ms" "ms" (1e3 *. setup_plan_s);
      m "dft2d.auto_regret" "ratio" (auto_regret spec d)
