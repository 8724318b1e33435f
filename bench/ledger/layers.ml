(* Per-layer accounting from the spans the runtime already records
   (Spiral_util.Trace).  Worker 0 is the caller: each engine execute span
   is one operation, and inside it the pool's dispatch mark, worker 0's
   job (its passes and barrier waits) and the join.  Worker 1's job
   spans that start inside an operation's execute span belong to it.

   The parts partition the execute span:
     dispatch  = job start - dispatch mark (publishing the call)
     busy, barrier = worker 0's pass and barrier spans
     join      = the caller waiting for the other worker
     overhead  = execute - (dispatch + job + join): engine and Par_exec
                 work outside the pool (length checks, counters, the
                 residency decision)
   so dispatch + busy + barrier + join + overhead = execute minus the
   job's own loop overhead; what the ledger's timer sees beyond that is
   reported as layers.unaccounted_frac. *)

open Spiral_util

type op = {
  exec_ns : int;
  dispatch_ns : int;
  job_ns : int;
  busy0_ns : int;
  barrier0_ns : int;
  join_ns : int;
  busy1_ns : int;
  crossed : int;  (* barrier waits on worker 0 *)
  elided : int;  (* statically elided barriers on worker 0 *)
  passes : int;  (* pass executions on worker 0 *)
}

let ncat = 16

(* worker 1: (job start, pass busy) per job, in time order *)
let worker_jobs (evs : Trace.event list) =
  let begins = Array.make ncat 0 in
  let jobs = ref [] and busy = ref 0 and start = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.phase with
      | Trace.Begin ->
          begins.(e.cat) <- e.ts_ns;
          if e.cat = Trace.cat_job then begin
            start := e.ts_ns;
            busy := 0
          end
      | Trace.End ->
          if e.cat = Trace.cat_pass then busy := !busy + (e.ts_ns - begins.(e.cat))
          else if e.cat = Trace.cat_job then jobs := (!start, !busy) :: !jobs
      | Trace.Mark -> ())
    evs;
  Array.of_list (List.rev !jobs)

(* Every completed operation currently in the rings. *)
let ops () =
  let evs = Trace.events () in
  let w0 = List.filter (fun (e : Trace.event) -> e.worker = 0) evs in
  let w1 = worker_jobs (List.filter (fun (e : Trace.event) -> e.worker = 1) evs) in
  let begins = Array.make ncat 0 in
  let out = ref [] in
  let inside = ref false in
  let dispatch = ref 0 and job = ref 0 and busy = ref 0 and barrier = ref 0
  and join = ref 0 and crossed = ref 0 and elided = ref 0 and passes = ref 0 in
  let next_job = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      let c = e.cat in
      match e.phase with
      | Trace.Begin ->
          begins.(c) <- e.ts_ns;
          if c = Trace.cat_execute then begin
            inside := true;
            dispatch := 0;
            job := 0;
            busy := 0;
            barrier := 0;
            join := 0;
            crossed := 0;
            elided := 0;
            passes := 0
          end
          else if c = Trace.cat_job && !inside && begins.(Trace.cat_dispatch) > begins.(Trace.cat_execute)
          then dispatch := !dispatch + (e.ts_ns - begins.(Trace.cat_dispatch))
      | Trace.Mark ->
          if c = Trace.cat_dispatch then begins.(c) <- e.ts_ns
          else if c = Trace.cat_elided && !inside then incr elided
      | Trace.End ->
          let d = e.ts_ns - begins.(c) in
          if c = Trace.cat_pass then begin
            busy := !busy + d;
            incr passes
          end
          else if c = Trace.cat_barrier then begin
            barrier := !barrier + d;
            incr crossed
          end
          else if c = Trace.cat_job then job := !job + d
          else if c = Trace.cat_join then join := !join + d
          else if c = Trace.cat_execute && !inside then begin
            inside := false;
            let e0 = begins.(Trace.cat_execute) in
            (* worker 1's jobs that started inside this operation *)
            while !next_job < Array.length w1 && fst w1.(!next_job) < e0 do
              incr next_job
            done;
            let busy1 = ref 0 in
            while !next_job < Array.length w1 && fst w1.(!next_job) <= e.ts_ns do
              busy1 := !busy1 + snd w1.(!next_job);
              incr next_job
            done;
            out :=
              {
                exec_ns = d;
                dispatch_ns = !dispatch;
                job_ns = !job;
                busy0_ns = !busy;
                barrier0_ns = !barrier;
                join_ns = !join;
                busy1_ns = !busy1;
                crossed = !crossed;
                elided = !elided;
                passes = !passes;
              }
              :: !out
          end)
    w0;
  List.rev !out

(* Durations (ns) of the service's request spans: the executor's time
   per request, from dequeue to reply written. *)
let request_spans () =
  List.filter_map
    (fun (s : Trace.span) ->
      if s.worker = 0 && s.cat = Trace.cat_request then Some s.dur_ns else None)
    (Trace.spans ())

(* Running sums over the traced operations of one workload. *)
type acc = {
  mutable n : int;
  mutable disp : float;
  mutable busy0 : float;
  mutable bar0 : float;
  mutable join : float;
  mutable overhead : float;
  mutable busy_max : float;
  mutable imbalance : float;
  mutable crossed_n : float;
  mutable elided_n : float;
  mutable passes_n : float;
}

let acc () =
  {
    n = 0;
    disp = 0.0;
    busy0 = 0.0;
    bar0 = 0.0;
    join = 0.0;
    overhead = 0.0;
    busy_max = 0.0;
    imbalance = 0.0;
    crossed_n = 0.0;
    elided_n = 0.0;
    passes_n = 0.0;
  }

let add a (o : op) =
  let f = float_of_int in
  a.n <- a.n + 1;
  a.disp <- a.disp +. f o.dispatch_ns;
  a.busy0 <- a.busy0 +. f o.busy0_ns;
  a.bar0 <- a.bar0 +. f o.barrier0_ns;
  a.join <- a.join +. f o.join_ns;
  a.overhead <-
    a.overhead +. f (o.exec_ns - o.dispatch_ns - o.job_ns - o.join_ns);
  let mx = max o.busy0_ns o.busy1_ns in
  a.busy_max <- a.busy_max +. f mx;
  let active = (if o.busy0_ns > 0 then 1 else 0) + if o.busy1_ns > 0 then 1 else 0 in
  a.imbalance <-
    a.imbalance
    +. (if active = 0 then 1.0
        else f mx /. (f (o.busy0_ns + o.busy1_ns) /. f active));
  a.crossed_n <- a.crossed_n +. f o.crossed;
  a.elided_n <- a.elided_n +. f o.elided;
  a.passes_n <- a.passes_n +. f o.passes

(* mean per operation, in the unit's natural scale (ns -> us) *)
let per_op a field = if a.n = 0 then 0.0 else field /. float_of_int a.n
let us a field = per_op a field /. 1e3

(* what the parts add up to, us per operation *)
let accounted_us a = us a a.disp +. us a a.busy0 +. us a a.bar0 +. us a a.join +. us a a.overhead

let report (o : Outcome.t) a =
  let m = Outcome.metric o in
  m "pool.dispatch_us" "us" (us a a.disp);
  m "pool.join_us" "us" (us a a.join);
  m "barrier.wait_us" "us" (us a a.bar0);
  m "barrier.crossed" "count" (per_op a a.crossed_n);
  m "barrier.elided" "count" (per_op a a.elided_n);
  m "par_exec.pass_busy_us" "us" (us a a.busy_max);
  m "par_exec.load_imbalance" "ratio" (per_op a a.imbalance);
  m "engine.overhead_us" "us" (us a a.overhead)

(* ---- counters the runtime bumps on its own ---- *)

let runtime_counters =
  [ "pool.region_enter"; "pool.region_decay"; Spiral_smp.Spinwait.timed_sleep_counter;
    "par_exec.retry"; "par_exec.sequential_fallback"; "engine.seq_fallback" ]

let snapshot names = List.map (fun c -> (c, Counters.get c)) names
let since snap c = float_of_int (Counters.get c - List.assoc c snap)

(* residency events per 1000 operations, degradations as counts *)
let report_counters (o : Outcome.t) snap =
  let m = Outcome.metric o in
  let kop = 1000.0 /. float_of_int (max 1 o.attempted) in
  m "pool.region_enter" "count/kop" (kop *. since snap "pool.region_enter");
  m "pool.region_decay" "count/kop" (kop *. since snap "pool.region_decay");
  m "smp.timed_sleep" "count/kop" (kop *. since snap Spiral_smp.Spinwait.timed_sleep_counter);
  List.iter
    (fun c -> m c "count" (since snap c))
    [ "par_exec.retry"; "par_exec.sequential_fallback"; "engine.seq_fallback" ]

(* ---- the OCaml runtime, over untraced rounds only ---- *)

type gc = { mutable words : float; mutable major : int; mutable ops : int; mutable secs : float }

let gc () = { words = 0.0; major = 0; ops = 0; secs = 0.0 }

(* Gc.minor first: a domain's allocation reaches the shared statistics
   only at its next minor collection, so without it a workload that
   allocates little reads 0 *)
let gc_measured g (o : Outcome.t) f =
  Gc.minor ();
  let s0 = Gc.quick_stat () and n0 = o.attempted and t0 = Clock.now () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  g.words <- g.words +. s1.minor_words -. s0.minor_words;
  g.major <- g.major + s1.major_collections - s0.major_collections;
  g.ops <- g.ops + o.attempted - n0;
  g.secs <- g.secs +. Clock.secs (Clock.now () - t0);
  r

let report_gc (o : Outcome.t) g =
  Outcome.metric o "gc.minor_words_per_op" "words" (g.words /. float_of_int (max 1 g.ops));
  Outcome.metric o "gc.major_collections_per_s" "1/s" (float_of_int g.major /. g.secs)

(* tracing's own cost: traced rounds against their untraced neighbours *)
let report_overhead (o : Outcome.t) ~untraced ~traced =
  Outcome.rounds o "untraced_p50_us" untraced;
  Outcome.rounds o "traced_p50_us" traced;
  Outcome.metric o "trace.overhead_frac" "ratio"
    ((Stats.median traced /. Stats.median untraced) -. 1.0)
