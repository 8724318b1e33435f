open Spiral_util
open Spiral_codegen

type schedule = Block | Cyclic of int

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Alignment of a pass's Block-partition boundaries, in iterations: a
   boundary at iteration [b] starts a fresh cache line whenever
   [b * radix] is a multiple of the pass's µ tag, i.e. when [b] is a
   multiple of µ/gcd(µ, radix).  Untagged passes need no alignment. *)
let pass_align (p : Plan.pass) =
  match p.Plan.mu with
  | None -> 1
  | Some mu when mu <= 1 -> 1
  | Some mu ->
      let r = max 1 p.Plan.radix in
      max 1 (mu / gcd mu r)

let worker_range ?(align = 1) sched ~count ~workers w =
  match sched with
  | Block ->
      let chunk = count / workers and rem = count mod workers in
      (* distribute the remainder one iteration at a time to the first
         [rem] workers so the partition is exact *)
      let raw v = (v * chunk) + min v rem in
      if align <= 1 then begin
        let lo = raw w in
        let hi = lo + chunk + if w < rem then 1 else 0 in
        if hi > lo then [ (lo, hi) ] else []
      end
      else begin
        (* µ-aligned variant: floor every internal boundary to a multiple
           of [align] (the first and last boundaries are 0 and [count]
           and need no adjustment).  Flooring a monotone sequence keeps
           it monotone, so the ranges still partition [0, count). *)
        let bound v = if v >= count then count else v / align * align in
        let lo = if w = 0 then 0 else bound (raw w) in
        let hi = if w >= workers - 1 then count else bound (raw (w + 1)) in
        if hi > lo then [ (lo, hi) ] else []
      end
  | Cyclic c ->
      let c = max 1 c in
      let rec go start acc =
        if start >= count then List.rev acc
        else
          let lo = start and hi = min count (start + c) in
          go (start + (workers * c)) ((lo, hi) :: acc)
      in
      go (w * c) []

(* ---------------------------------------------------------------- *)
(* Barrier elision.  The barrier between passes k and k+1 can be skipped
   when the passes are partition-compatible under the Block schedule
   (legality conditions in DESIGN.md):

   A. every position pass k+1 gathers for worker w was scattered by the
      same worker w in pass k (each worker reads only its own writes);
   B. when pass k's input buffer is also pass k+1's output buffer (the
      ping-pong schedule aliases them whenever both are intermediates),
      every position pass k+1 scatters for worker w is gathered in pass k
      by no worker other than w (no write-before-read of another
      worker's pending input);
   and never three boundaries in a row.  Two consecutive elisions (worker
   skew of two passes) are admitted under an extra condition C checked
   below: the two passes bracketing the chain must agree pointwise on
   which worker writes each position of the ping-pong buffer they share.
   With a single worker there is no concurrency and every boundary is
   elidable.

   The analysis walks the exact (µ-aligned) Block partition and the
   materialized addressing, so it is conservative only where it
   refuses. *)

type boundary_witness = {
  boundary : int;
  writer : int array;
  reader : int array;
}

(* [capture] snapshots the per-position writer/reader ownership arrays of
   pass k for every boundary the analysis decides to elide — the
   certificate [Spiral_validate.check_elision] re-derives and checks.
   Witnesses are only materialized on request (two int arrays of size n
   per elided boundary), never cached. *)
let compute_elision ?(capture = false) ~workers (plan : Plan.t) =
  let np = Array.length plan.Plan.passes in
  let nb = max 0 (np - 1) in
  let mask = Array.make nb false in
  let wits = ref [] in
  if workers = 1 then Array.fill mask 0 nb true
  else begin
    let n = plan.Plan.n in
    let writer = Array.make n (-1) in
    let reader = Array.make n (-1) in
    for b = 0 to nb - 1 do
      let pk = plan.Plan.passes.(b) and pk1 = plan.Plan.passes.(b + 1) in
      if pk.Plan.par <> None && pk1.Plan.par <> None then begin
        Array.fill writer 0 n (-1);
        Array.fill reader 0 n (-1);
        (* footprint of pass k per worker *)
        for w = 0 to workers - 1 do
          List.iter
            (fun (lo, hi) ->
              Plan.footprint pk ~lo ~hi (fun _ gp sp ->
                  writer.(sp) <- w;
                  if reader.(gp) = -1 then reader.(gp) <- w
                  else if reader.(gp) <> w then reader.(gp) <- -2))
            (worker_range ~align:(pass_align pk) Block ~count:pk.Plan.count
               ~workers w)
        done;
        (* in(k) and out(k+1) alias iff both are ping-pong intermediates *)
        let aliasing = b > 0 && b + 1 < np - 1 in
        let ok = ref true in
        (try
           for w = 0 to workers - 1 do
             List.iter
               (fun (lo, hi) ->
                 Plan.footprint pk1 ~lo ~hi (fun _ gp sp ->
                     if writer.(gp) <> w then begin
                       ok := false;
                       raise Exit
                     end;
                     if aliasing then begin
                       let rd = reader.(sp) in
                       if rd <> -1 && rd <> w then begin
                         ok := false;
                         raise Exit
                       end
                     end))
               (worker_range ~align:(pass_align pk1) Block
                  ~count:pk1.Plan.count ~workers w)
           done
         with Exit -> ());
        mask.(b) <- !ok;
        if capture && !ok then
          wits :=
            { boundary = b; writer = Array.copy writer;
              reader = Array.copy reader }
            :: !wits
      end
    done;
    (* Chained elisions, length exactly two (worker skew ≤ 2 passes).
       With boundaries b-1 and b both elided, a fast worker can run pass
       b+1 while a straggler is still in pass b-1.  The pairwise A/B
       checks above cover every adjacent-pass hazard at skew 1; the only
       new hazards at skew 2 are between passes b+1 and b-1, whose
       outputs land in the same ping-pong intermediate (out(b+1) ≡
       out(b-1) by buffer parity — unless pass b+1 writes y).  Both the
       WAW (two writes racing) and the WAR (pass b+1 clobbering a
       position a straggler's pass-b neighbour still gathers, which
       condition A pins to the pass-(b-1) writer) are serialized by
       per-worker program order exactly when the two passes agree
       pointwise on which worker owns each co-written position.  Chains
       of three would add distance-3 hazards with no such cheap
       certificate, so a third consecutive elision is never attempted. *)
    let pass_writer = Array.make np None in
    let writer_of k =
      match pass_writer.(k) with
      | Some a -> a
      | None ->
          let p = plan.Plan.passes.(k) in
          let a = Array.make n (-1) in
          for w = 0 to workers - 1 do
            List.iter
              (fun (lo, hi) ->
                Plan.footprint p ~lo ~hi (fun _ _ sp -> a.(sp) <- w))
              (worker_range ~align:(pass_align p) Block ~count:p.Plan.count
                 ~workers w)
          done;
          pass_writer.(k) <- Some a;
          a
    in
    let writers_agree j k =
      let wa = writer_of j and wb = writer_of k in
      let same = ref true in
      (try
         for q = 0 to n - 1 do
           if wa.(q) >= 0 && wb.(q) >= 0 && wa.(q) <> wb.(q) then begin
             same := false;
             raise Exit
           end
         done
       with Exit -> ());
      !same
    in
    for b = 1 to nb - 1 do
      if mask.(b) && mask.(b - 1) then begin
        let chain3 = b >= 2 && mask.(b - 2) in
        let ok =
          (not chain3) && (b + 1 = np - 1 || writers_agree (b + 1) (b - 1))
        in
        if not ok then mask.(b) <- false
      end
    done
  end;
  (* the chain-length rule may have withdrawn some elisions after their
     witnesses were captured *)
  (mask, List.rev (List.filter (fun w -> mask.(w.boundary)) !wits))

let empty_mask = [||]

let elision_mask ?(schedule = Block) ~workers (plan : Plan.t) =
  match schedule with
  | Cyclic _ -> empty_mask
  | Block -> (
      match List.assoc_opt workers plan.Plan.elision with
      | Some m -> m
      | None ->
          let m, _ = compute_elision ~workers plan in
          plan.Plan.elision <- (workers, m) :: plan.Plan.elision;
          m)

let elision_witness ~workers (plan : Plan.t) =
  let mask, wits = compute_elision ~capture:true ~workers plan in
  (* refresh the cache: the recomputed mask reflects the plan as it is
     now, which is what subsequent [prepare]s should see *)
  plan.Plan.elision <-
    (workers, mask) :: List.remove_assoc workers plan.Plan.elision;
  (mask, wits)

(* ---------------------------------------------------------------- *)
(* False-sharing check (Definition 1).  A µ-tagged parallel pass is
   false-sharing free when no µ-line of its output is written by two
   different workers.  The aligned Block partition guarantees this for
   the paper's smp(p, µ)-conform plans at their native worker count; the
   check walks the materialized scatters and counts the lines that are
   nevertheless shared — e.g. when a plan generated for p processors is
   run with a different worker count. *)

let misaligned_counter = "par_exec.misaligned_split"

let count_misaligned ~workers (plan : Plan.t) =
  let shared = ref 0 in
  if workers > 1 then
    Array.iter
      (fun (p : Plan.pass) ->
        match (p.Plan.par, p.Plan.mu) with
        | Some _, Some mu when mu > 1 ->
            let nlines = ((plan.Plan.n - 1) / mu) + 1 in
            let owner = Array.make nlines (-1) in
            let align = pass_align p in
            for w = 0 to workers - 1 do
              List.iter
                (fun (lo, hi) ->
                  Plan.footprint p ~lo ~hi (fun _ _ sp ->
                      let line = sp / mu in
                      if owner.(line) = -1 then owner.(line) <- w
                      else if owner.(line) >= 0 && owner.(line) <> w then begin
                        owner.(line) <- -2;
                        incr shared
                      end))
                (worker_range ~align Block ~count:p.Plan.count ~workers w)
            done
        | _ -> ())
      plan.Plan.passes;
  !shared

let misaligned_lines ~workers (plan : Plan.t) =
  match List.assoc_opt workers plan.Plan.misaligned with
  | Some m -> m
  | None ->
      let m = count_misaligned ~workers plan in
      plan.Plan.misaligned <- (workers, m) :: plan.Plan.misaligned;
      if m > 0 then Counters.incr ~by:m misaligned_counter;
      m

(* ---------------------------------------------------------------- *)

let run_worker_pass ctx sched p ~src ~dst ~workers w =
  match p.Plan.par with
  | Some _ ->
      List.iter
        (fun (lo, hi) -> Plan.run_pass_range ctx p ~src ~dst ~lo ~hi)
        (worker_range ~align:(pass_align p) sched ~count:p.Plan.count
           ~workers w)
  | None ->
      if w = 0 then Plan.run_pass_range ctx p ~src ~dst ~lo:0 ~hi:p.Plan.count

(* ---------------------------------------------------------------- *)
(* Prepared parallel schedules.  [prepare] bakes, once per (plan, pool),
   everything [execute] used to recompute per call: the per-worker
   iteration ranges of every pass, the elision mask and its popcount,
   the barrier and one reusable per-worker barrier context, and the
   per-worker codelet scratch.  A steady-state [execute_prepared] is
   then exactly one pool dispatch, the interior barriers, and one join
   (the barrier after the final pass is subsumed by the join). *)

type residency = [ `Auto | `On | `Off ]

(* Process-wide residency defaults, consulted by [prepare] when the
   caller passes nothing: the CLI knobs (`spiralgen run --resident ...`)
   set these instead of threading new parameters through every
   front-end. *)
let default_residency : residency ref = ref `Auto
let default_resident_idle = ref 0.25
let default_spin_limit : int option ref = ref None

(* Adaptive residency admission: pin after [pin_initial] consecutive
   dispatches without losing the pool; double the threshold (up to
   [pin_max]) each time another plan evicts us, so two plans alternating
   on one shared pool degrade to plain pooled dispatch instead of
   ping-ponging region setup/teardown. *)
let pin_initial = 3
let pin_max = 256

type prepared = {
  plan : Plan.t;
  pool : Pool.t;
  workers : int;
  schedule : schedule;
  ranges : (int * int) array array array;
      (* ranges.(k).(w): iteration ranges of worker w in pass k
         (sequential passes run wholly on worker 0). *)
  mask : bool array;
  elided : int;  (* interior barriers skipped per execution *)
  wrap_elidable : bool;
      (* static legality of eliding the barrier between consecutive
         transforms of [execute_many]; see [compute_wrap_elidable] *)
  timeout : float option;
  residency : residency;
  idle : float;  (* resident-region decay deadline, seconds *)
  spin : int option;  (* resident workers' between-call spin budget *)
  mutable region : Pool.region option;
      (* the resident region this plan currently holds on [pool], if
         any; dispatcher-thread state like everything else here *)
  mutable streak : int;  (* consecutive dispatches since last pool loss *)
  mutable pin_after : int;  (* current adaptive admission threshold *)
  mutable barrier : Barrier.t;
  mutable bctxs : Barrier.ctx array;
      (* persistent senses: reused across calls, refreshed (with the
         barrier) after any failed execution, since an abandoned wait
         leaves the arrival count and senses inconsistent *)
}

(* Wrap boundary, condition B analogue: with an even number of passes,
   job j+1's first pass scatters into tmp_a while a straggler of job j
   may still be gathering tmp_a in its last pass.  Legal without a
   barrier only if every position worker w scatters in pass 0 is
   gathered in the last pass by no worker other than w. *)
let wrap_cond_b ~workers (plan : Plan.t) =
  let np = Array.length plan.Plan.passes in
  let pk = plan.Plan.passes.(np - 1) and pk1 = plan.Plan.passes.(0) in
  let n = plan.Plan.n in
  let reader = Array.make n (-1) in
  for w = 0 to workers - 1 do
    List.iter
      (fun (lo, hi) ->
        Plan.footprint pk ~lo ~hi (fun _ gp _ ->
            if reader.(gp) = -1 then reader.(gp) <- w
            else if reader.(gp) <> w then reader.(gp) <- -2))
      (worker_range ~align:(pass_align pk) Block ~count:pk.Plan.count
         ~workers w)
  done;
  let ok = ref true in
  (try
     for w = 0 to workers - 1 do
       List.iter
         (fun (lo, hi) ->
           Plan.footprint pk1 ~lo ~hi (fun _ _ sp ->
               let rd = reader.(sp) in
               if rd <> -1 && rd <> w then begin
                 ok := false;
                 raise Exit
               end))
         (worker_range ~align:(pass_align pk1) Block ~count:pk1.Plan.count
            ~workers w)
     done
   with Exit -> ());
  !ok

let compute_wrap_elidable ~schedule ~workers mask (plan : Plan.t) =
  if workers = 1 then true
  else
    match schedule with
    | Cyclic _ -> false
    | Block ->
        let np = Array.length plan.Plan.passes in
        let first = plan.Plan.passes.(0)
        and last = plan.Plan.passes.(np - 1) in
        let nb = Array.length mask in
        first.Plan.par <> None
        && last.Plan.par <> None
        (* a single-pass plan has no interior barrier left to bound the
           skew of a fast worker racing several jobs ahead *)
        && np >= 2
        (* no chained skew across the wrap boundary *)
        && (nb = 0 || ((not mask.(0)) && not mask.(nb - 1)))
        (* tmp_a is both out(pass 0) and in(pass np-1) iff np is even *)
        && (np mod 2 = 1 || wrap_cond_b ~workers plan)

let pass_ranges schedule ~workers (p : Plan.pass) =
  match p.Plan.par with
  | Some _ ->
      Array.init workers (fun w ->
          Array.of_list
            (worker_range ~align:(pass_align p) schedule ~count:p.Plan.count
               ~workers w))
  | None ->
      Array.init workers (fun w ->
          if w = 0 then [| (0, p.Plan.count) |] else [||])

let prepare pool ?(schedule = Block) ?(elide = true) ?timeout ?resident
    ?resident_idle ?spin_limit plan =
  let workers = Pool.size pool in
  let mask =
    if elide then elision_mask ~schedule ~workers plan else empty_mask
  in
  let elided = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask in
  ignore (misaligned_lines ~workers plan);
  Plan.ensure_worker_ctxs plan workers;
  (* the barrier inherits the pool's wait bound unless overridden: a
     pool configured for short timeouts (the service) must not have its
     workers stall for the 30 s barrier default when one of them dies
     mid-pass *)
  let timeout =
    match timeout with Some t -> Some t | None -> Some (Pool.timeout pool)
  in
  let residency =
    match resident with Some r -> r | None -> !default_residency
  in
  let idle =
    match resident_idle with Some s -> s | None -> !default_resident_idle
  in
  let spin =
    match spin_limit with Some _ as s -> s | None -> !default_spin_limit
  in
  let barrier = Barrier.create ?timeout ?spin_limit:spin workers in
  {
    plan;
    pool;
    workers;
    schedule;
    ranges =
      Array.map (pass_ranges schedule ~workers) plan.Plan.passes;
    mask;
    elided;
    wrap_elidable = compute_wrap_elidable ~schedule ~workers mask plan;
    timeout;
    residency;
    idle;
    spin;
    region = None;
    streak = 0;
    pin_after = pin_initial;
    barrier;
    bctxs =
      Array.init workers (fun w ->
          let c = Barrier.make_ctx barrier in
          Barrier.set_worker c w;
          c);
  }

let refresh t =
  t.barrier <- Barrier.create ?timeout:t.timeout ?spin_limit:t.spin t.workers;
  t.bctxs <-
    Array.init t.workers (fun w ->
        let c = Barrier.make_ctx t.barrier in
        Barrier.set_worker c w;
        c)

(* ---------------------------------------------------------------- *)
(* Three-tier dispatch: resident region → pooled run → (in the
   supervised wrappers) sequential fallback.  [dispatch] is the single
   entry every prepared execution goes through. *)

let region_teardown t =
  match t.region with
  | Some r ->
      Pool.region_end r;
      t.region <- None;
      t.streak <- 0
  | None -> ()

let release t = region_teardown t

(* Another plan's region holds our pool (a live region owns the pool's
   busy flag): retire it so this dispatch can proceed.  The evicted plan
   discovers the loss on its next dispatch and backs off. *)
let evict_foreign t =
  match Pool.resident t.pool with
  | Some r ->
      Pool.region_end r;
      Counters.incr "pool.region_evict"
  | None -> ()

let dispatch_cold t body =
  evict_foreign t;
  let pin =
    t.workers > 1
    &&
    match t.residency with
    | `On -> true
    | `Off -> false
    | `Auto -> t.streak >= t.pin_after
  in
  if pin then begin
    match Pool.region_begin ?spin_limit:t.spin ~idle:t.idle t.pool with
    | r ->
        t.region <- Some r;
        if not (Pool.region_run r body) then begin
          (* decayed before the first call could win the CAS (only
             plausible with a sub-millisecond idle deadline) *)
          region_teardown t;
          Pool.run t.pool body
        end
    | exception Invalid_argument _ ->
        (* lost the pool between evict and begin (or it is poisoned):
           let the pooled path raise its own diagnostics *)
        Pool.run t.pool body
  end
  else begin
    Pool.run t.pool body;
    t.streak <- t.streak + 1
  end

let dispatch t body =
  match t.region with
  | Some r ->
      if not (Pool.region_run r body) then begin
        (* region over: idle decay (rended still false) or eviction by
           another plan sharing the pool *)
        let evicted = Pool.region_ended r in
        region_teardown t;
        if evicted then t.pin_after <- min pin_max (t.pin_after * 2);
        dispatch_cold t body
      end
  | None -> dispatch_cold t body

let check_vec name plan v =
  if Array.length v <> 2 * plan.Plan.n then
    invalid_arg (name ^ ": wrong vector length")

let run_ranges ctx p ranges ~src ~dst =
  for r = 0 to Array.length ranges - 1 do
    let lo, hi = ranges.(r) in
    Plan.run_pass_range ctx p ~src ~dst ~lo ~hi
  done

let execute_prepared t x y =
  let plan = t.plan in
  check_vec "Par_exec.execute" plan x;
  check_vec "Par_exec.execute" plan y;
  if t.elided > 0 then Counters.incr ~by:t.elided "par_exec.barrier_elided";
  let np = Array.length plan.Plan.passes in
  let nb = Array.length t.mask in
  try
    dispatch t (fun w ->
        let bctx = t.bctxs.(w) in
        let ctx = Plan.worker_ctx plan w in
        for k = 0 to np - 1 do
          Fault.check "par_exec.pass";
          let src = Plan.pass_src plan ~x k
          and dst = Plan.pass_dst plan ~y k in
          Trace.begin_span w Trace.cat_pass k;
          run_ranges ctx plan.Plan.passes.(k) t.ranges.(k).(w) ~src ~dst;
          Trace.end_span w Trace.cat_pass k;
          (* no barrier after the final pass: the pool/region join is
             the rendezvous that releases the caller *)
          if k < np - 1 then
            if k >= nb || not t.mask.(k) then Barrier.wait t.barrier bctx
            else Trace.mark w Trace.cat_elided k
        done)
  with e ->
    (* any failure strands arrival counts and senses mid-phase; drop
       residency too so a heal (which needs the pool's busy flag clear)
       can rebuild the workers *)
    region_teardown t;
    refresh t;
    raise e

let execute_many t jobs =
  let njobs = Array.length jobs in
  if njobs > 0 then begin
    let plan = t.plan in
    Array.iter
      (fun (x, y) ->
        check_vec "Par_exec.execute_many" plan x;
        check_vec "Par_exec.execute_many" plan y)
      jobs;
    (* Decide each wrap boundary up front (all workers must agree): the
       static analysis covers the plan's internal buffers; chained user
       buffers (job j's output feeding job j+1, or re-used inputs) are
       caught by physical equality. *)
    let wrap_elide =
      Array.init (njobs - 1) (fun j ->
          let x0, y0 = jobs.(j) and x1, y1 = jobs.(j + 1) in
          ignore x0;
          (* chained user buffers (job j's output feeding j+1's input, or
             the reverse) reintroduce cross-job dependences the static
             analysis cannot see; re-using the same (x, y) pair across
             jobs is fine — same pass, same partition, so cross-worker
             write sets stay disjoint *)
          t.wrap_elidable && x1 != y0 && y1 != x0)
    in
    let wraps =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 wrap_elide
    in
    let elided = (t.elided * njobs) + wraps in
    if elided > 0 then Counters.incr ~by:elided "par_exec.barrier_elided";
    let np = Array.length plan.Plan.passes in
    let nb = Array.length t.mask in
    try
      dispatch t (fun w ->
          let bctx = t.bctxs.(w) in
          let ctx = Plan.worker_ctx plan w in
          for j = 0 to njobs - 1 do
            let x, y = jobs.(j) in
            for k = 0 to np - 1 do
              Fault.check "par_exec.pass";
              let src = Plan.pass_src plan ~x k
              and dst = Plan.pass_dst plan ~y k in
              Trace.begin_span w Trace.cat_pass k;
              run_ranges ctx plan.Plan.passes.(k) t.ranges.(k).(w) ~src ~dst;
              Trace.end_span w Trace.cat_pass k;
              if k < np - 1 then begin
                if k >= nb || not t.mask.(k) then Barrier.wait t.barrier bctx
                else Trace.mark w Trace.cat_elided k
              end
              else if j < njobs - 1 then
                if wrap_elide.(j) then Trace.mark w Trace.cat_elided k
                else Barrier.wait t.barrier bctx
            done
          done)
    with e ->
      region_teardown t;
      refresh t;
      raise e
  end

(* Failures the supervised executor can recover from: worker exceptions
   (including injected faults and barrier timeouts recorded per worker)
   and pool-level deadlocks from dead or stalled domains.  Anything else
   — Out_of_memory, programming errors in [execute] itself — propagates. *)
let recoverable = function
  | Pool.Worker_errors _ | Pool.Deadlock _ | Barrier.Timeout _ -> true
  | _ -> false

let heal_if_needed pool =
  if not (Pool.healthy pool) then try Pool.heal pool with _ -> ()

let execute_safe_prepared t x y =
  try execute_prepared t x y
  with e when recoverable e -> (
    Counters.incr "par_exec.retry";
    heal_if_needed t.pool;
    try execute_prepared t x y
    with e when recoverable e ->
      heal_if_needed t.pool;
      (* Sequential execution recomputes every pass over its full range
         from the original input, so partial writes by the failed
         parallel attempts cannot leak into the result. *)
      Counters.incr "par_exec.sequential_fallback";
      Trace.mark 0 Trace.cat_fallback 0;
      Plan.execute t.plan x y)

let execute_many_safe t jobs =
  try execute_many t jobs
  with e when recoverable e -> (
    Counters.incr "par_exec.retry";
    heal_if_needed t.pool;
    try execute_many t jobs
    with e when recoverable e ->
      heal_if_needed t.pool;
      Counters.incr "par_exec.sequential_fallback";
      Trace.mark 0 Trace.cat_fallback 0;
      Array.iter (fun (x, y) -> Plan.execute t.plan x y) jobs)

(* Compatibility entry points: prepare per call (the schedule pieces are
   cached on the plan, so this costs one barrier and a few arrays). *)

let execute pool ?schedule ?elide ?timeout plan x y =
  execute_prepared (prepare pool ?schedule ?elide ?timeout plan) x y

let execute_safe pool ?schedule ?elide ?timeout plan x y =
  execute_safe_prepared (prepare pool ?schedule ?elide ?timeout plan) x y

let execute_fork_join ~p ?(schedule = Block) ?(elide = true) plan x y =
  if p < 1 then invalid_arg "Par_exec.execute_fork_join: p >= 1";
  let mask =
    if elide then elision_mask ~schedule ~workers:p plan else empty_mask
  in
  let np = Array.length plan.Plan.passes in
  Plan.ensure_worker_ctxs plan p;
  let k = ref 0 in
  while !k < np do
    let pass = plan.Plan.passes.(!k) in
    match pass.Plan.par with
    | None ->
        let src = Plan.pass_src plan ~x !k
        and dst = Plan.pass_dst plan ~y !k in
        Plan.run_pass_range (Plan.worker_ctx plan 0) pass ~src ~dst ~lo:0
          ~hi:pass.Plan.count;
        incr k
    | Some _ ->
        (* OpenMP-style parallel region: spawn, work, join.  Consecutive
           parallel passes joined by an elidable boundary share one
           region, saving a spawn/join cycle per elision. *)
        let k0 = !k in
        let last = ref k0 in
        while
          !last + 1 < np
          && (match plan.Plan.passes.(!last + 1).Plan.par with
             | Some _ -> true
             | None -> false)
          && !last < Array.length mask
          && mask.(!last)
        do
          incr last
        done;
        let k1 = !last in
        let work w =
          let ctx = Plan.worker_ctx plan w in
          for j = k0 to k1 do
            let src = Plan.pass_src plan ~x j
            and dst = Plan.pass_dst plan ~y j in
            run_worker_pass ctx schedule plan.Plan.passes.(j) ~src ~dst
              ~workers:p w
          done
        in
        let domains =
          Array.init (p - 1) (fun i -> Domain.spawn (fun () -> work (i + 1)))
        in
        work 0;
        Array.iter Domain.join domains;
        k := k1 + 1
  done
