(* plan_cold: first-use cost.  One operation is one descriptor taken from
   an empty plan registry to its first verified result:
   Engine.reset_registry, a fresh Plans table at p=2, lookup, one exec.
   The shared worker pool stays warm (it is process-wide, paid once in
   set-up), as do Dft2d's Auto shoot-out winners. *)

open Spiral_util
module Plans = Spiral_service.Plans

let descriptors =
  [|
    "dft[256]f"; "dft[1024]f"; "dft[4096]f"; "dft[16384]f"; "dft[65536]f";
    "dft[1009]f"; "dft[256]fx16"; "rfft[4096]f"; "dft2d[64x64]f";
    "dft2d[128x128]f";
  |]

(* the direct power-of-two DFTs whose planning stages are replayed *)
let replay_sizes = [ 256; 1024; 4096; 16384; 65536 ]
let now = Clock.now

(* one descriptor from an empty registry to its first output (None if
   planning or execution failed); the caller destroys the plans table
   after stopping its clock *)
let first_result descriptor input =
  Spiral_fft.Engine.reset_registry ();
  let plans = Plans.create ~threads:2 () in
  let out =
    match Plans.lookup plans descriptor with
    | Ok e -> ( try Some (e.exec input) with _ -> None)
    | Error _ -> None
  in
  (out, plans)

(* one timed and checked operation: its latency in ns, or None *)
let op (o : Outcome.t) (p : Payload.t) =
  let t0 = now () in
  let out, plans = first_result p.descriptor p.input in
  let dt = now () - t0 in
  Plans.destroy_all plans;
  match out with
  | Some y ->
      Outcome.checked o ~tol:p.tol (Payload.err p y);
      Some dt
  | None ->
      Outcome.failed_op o;
      None

(* the checked payloads, after one untimed pass so the rounds start with
   the pool and Dft2d's Auto choices settled *)
let payloads ~seed =
  let ps = Array.map (fun d -> Payload.make ~seed ~slot:0 d) descriptors in
  Array.iter (fun p -> ignore (op (Outcome.create ()) p)) ps;
  ps

(* Set-up: what a fresh process pays before its steady state — the
   shared pool and one pass over every descriptor (which also settles
   Dft2d's Auto choice).  Outputs are checked in the measured rounds,
   not here. *)
let cold_setup ~seed =
  let inputs = Array.map (fun d -> (d, Payload.input ~seed ~slot:0 d)) descriptors in
  let t0 = now () in
  Spiral_smp.Pool_registry.release (Spiral_smp.Pool_registry.acquire 2);
  Array.iter
    (fun (d, x) ->
      let out, plans = first_result d x in
      Plans.destroy_all plans;
      if out = None then failwith ("cold set-up: " ^ d ^ " failed"))
    inputs;
  let s = Clock.secs (now () - t0) in
  (s, s)

(* One round: shuffled passes over the descriptors until [round_ns] has
   elapsed, stopping between operations but never before one whole pass.
   Per-round statistics weight every descriptor equally: the geometric
   mean over descriptors of each one's median (p50) and 90th percentile
   (tail) cold latency. *)
let round (o : Outcome.t) ps ~rng ~round_ns =
  let per = Array.map (fun _ -> ref []) ps in
  let total = ref 0 and count = ref 0 in
  let t_end = now () + round_ns in
  let first = ref true in
  while !first || now () < t_end do
    let order = Array.init (Array.length ps) Fun.id in
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter
      (fun k ->
        if !first || now () < t_end then
          match op o ps.(k) with
          | Some dt ->
              per.(k) := (float_of_int dt /. 1e3) :: !(per.(k));
              total := !total + dt;
              incr count
          | None -> ())
      order;
    first := false
  done;
  let q p = Stats.geomean (Array.map (fun l -> Stats.quantile (Array.of_list !l) p) per) in
  (q 0.5, q 0.9, float_of_int !count /. (float_of_int !total /. 1e9))

let run ~seed ~rounds ~round_s (o : Outcome.t) =
  let ps = payloads ~seed in
  let round_ns = int_of_float (round_s *. 1e9) in
  let st =
    Speed.around rounds (fun r -> round o ps ~rng:(Random.State.make [| seed; r |]) ~round_ns)
  in
  (* cold operations take milliseconds, long enough to catch the CPU
     being taken away, so they are scaled by the kernel's wall reading *)
  let readings = Array.map snd st in
  let ref_us = Array.map (fun r -> r.Speed.wall_us) readings in
  Outcome.speed_rounds o "" readings;
  Outcome.latency_rounds o "latency_us_p50" ~ref_us (Array.map (fun ((a, _, _), _) -> a) st);
  Outcome.latency_rounds o "latency_us_tail" ~ref_us (Array.map (fun ((_, b, _), _) -> b) st);
  Outcome.throughput_rounds o "throughput_rps" ~ref_us (Array.map (fun ((_, _, c), _) -> c) st);
  Outcome.detail o "tail_percentile" (Json.Num 90.0)

let run_traced ~seed ~round_s ~trace_file ~replay_reps (o : Outcome.t) =
  let ps = payloads ~seed in
  let round_ns = int_of_float (round_s *. 1e9) in
  let rng r = Random.State.make [| seed; r |] in
  let snap =
    Layers.snapshot
      ([ "validate.check"; "optimize.fused_passes"; "engine.validation_fallback" ]
      @ Layers.runtime_counters)
  in
  let gc = Layers.gc () and dropped = ref 0 in
  let pairs =
    Array.init 3 (fun r ->
        let p50 k =
          let a, _, _ = round o ps ~rng:(rng k) ~round_ns in
          a
        in
        let untraced = Layers.gc_measured gc o (fun () -> p50 r) in
        Trace.enable ~workers:2 ~capacity:(1 lsl 16) ();
        let traced = p50 (10 + r) in
        Trace.disable ();
        dropped := !dropped + Trace.dropped ();
        if r = 2 then
          Out_channel.with_open_bin trace_file (fun oc ->
              output_string oc (Trace.to_chrome_json ()));
        Trace.clear ();
        (untraced, traced))
  in
  Layers.report_overhead o ~untraced:(Array.map fst pairs) ~traced:(Array.map snd pairs);
  Layers.report_counters o snap;
  Layers.report_gc o gc;
  let m = Outcome.metric o in
  let per_plan c = Layers.since snap c /. float_of_int (max 1 o.attempted) in
  m "validate.checks" "count" (per_plan "validate.check");
  m "optimize.fused_passes" "count" (per_plan "optimize.fused_passes");
  m "engine.validation_fallback" "count" (per_plan "engine.validation_fallback");
  m "trace.dropped" "count" (float_of_int !dropped);
  let stages = List.map (fun n -> Replay.run ~reps:replay_reps ~threads:2 n) replay_sizes in
  Replay.report o stages;
  m "layers.unaccounted_frac" "ratio" (1.0 -. Replay.coverage stages)
