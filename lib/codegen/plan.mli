(** Executable plans: materialized IR.

    Materialization resolves each pass's symbolic index functions into
    either affine strides (the common case — detected by probing, fully
    verified for small sizes and densely sampled above
    {!affine_check_threshold}) or precomputed index tables, and evaluates
    scale functions into interleaved twiddle tables.  This is the moment
    "program generation" happens: the result is straight-line addressing +
    unrolled codelets, no formula interpretation remains on the hot path.

    Execution is allocation-free in steady state: every worker runs with
    a preallocated {!ctx} (codelet scratch + odometer digits), and the
    strided pass loops are monomorphized over (twiddle × unit-stride) so
    the inner loop is integer arithmetic plus one kernel call. *)

type addressing =
  | Strided of {
      exts : int array;
      suffix : int array;
          (** Suffix products of [exts] (length [Array.length exts + 1],
              [suffix.(j)] = product of extents from level [j]). *)
      gstrs : int array;
      sstrs : int array;
      g0 : int;
      s0 : int;
      gl : int;
      sl : int;
    }
      (** A nested loop nest with extents [exts] (outermost first): the
          iteration with digit vector [a] gathers element [l] at
          [g0 + Σ_j a_j·gstrs_j + l·gl]; likewise scatter with [s…]. *)
  | Indexed of { gidx : int array; sidx : int array }
      (** Index tables of size [count * radix], iteration-major. *)

type layout =
  | Interleaved  (** re,im,re,im — the classic layout; scalar codelets. *)
  | Split
      (** Split re/im planes within one float array of 2n: re at [0,n),
          im at [n,2n).  Passes run planar {!Vcodelet}s, ν-lane-blocked
          where the materialized strides allow; buffers keep the same
          type and length, so [Par_exec] (ranges, barriers, resident
          regions) works unchanged. *)

type split_exec = {
  vk : Vcodelet.t;
  im : int;  (** Plane offset (= n) of every buffer of the plan. *)
}

type pass = {
  count : int;
  radix : int;
  par : int option;
  mu : int option;
      (** Cache-line granularity (complex elements) from the formula's
          [smp(p, µ)]/[CacheTensor] tags; carried from {!Ir.pass}
          (fusion keeps the largest tag).  [Par_exec] aligns Block
          boundaries of µ-tagged parallel passes so no cache line is
          shared between workers (Definition 1). *)
  vec : int option;
      (** ν-way vector tag carried from {!Ir.pass.vec} (advisory — see
          there). *)
  kernel : Codelet.t;
  addr : addressing;
  tw : float array option;
      (** Interleaved load-scale table, indexed by [i*radix + l]. *)
  flops : int;
  split : split_exec option;
      (** [Some _] iff the plan layout is [Split]: the planar kernel this
          pass runs instead of [kernel].  Lane-blocked ([vk.lanes] = ν)
          when the pass is ν-tagged and the innermost materialized loop
          extent is divisible by ν; scalar planar otherwise. *)
}

type ctx
(** Per-worker execution context (codelet scratch + odometer digit
    buffer).  A ctx must not be shared by concurrently running domains. *)

type vreport = {
  vdigest : int;  (** {!digest} of the plan at validation time. *)
  mutable vbase : bool;
      (** Worker-independent obligations (fusion, vec lowering)
          discharged. *)
  mutable vworkers : int list;
      (** Worker counts whose partition/elision/coverage obligations were
          discharged at this digest. *)
}
(** Record of discharged validation obligations, written by
    [Spiral_validate.validate_plan] and shared by {!clone} (cloning
    changes no immutable state, so certificates carry over); a digest
    mismatch marks the report stale. *)

type t = {
  n : int;
  layout : layout;
  passes : pass array;
  tmp_a : float array;  (** Intermediate buffers (ping-pong). *)
  tmp_b : float array;
  ctx : ctx;  (** Context of the sequential executor. *)
  mutable wctx : ctx array;
      (** Per-worker contexts; use {!ensure_worker_ctxs} / {!worker_ctx}. *)
  mutable elision : (int * bool array) list;
      (** Barrier-elision mask cache, keyed by worker count; owned by
          [Par_exec.elision_mask]. *)
  mutable misaligned : (int * int) list;
      (** False-sharing-check cache, keyed by worker count: number of
          µ-lines written by two or more workers under the aligned Block
          partition.  Owned by [Par_exec.misaligned_lines]. *)
  fusion_cert : Optimize.fusion_cert option;
      (** Certificate of the fusion rewrites applied to the plan's IR
          ([Some] iff fusion ran); discharged by
          [Spiral_validate.check_fusion]. *)
  mutable validation : vreport option;
      (** Discharged-obligation record, keyed by {!digest}; owned by
          [Spiral_validate.validate_plan].  Shared by {!clone}. *)
}

val affine_check_threshold : int
(** Below this many (iteration, element) points, affinity of index
    functions is verified exhaustively; above, densely sampled. *)

val digest : t -> int
(** Structural digest of everything validation depends on (pass shapes,
    tags, kernels, materialized addressing, sampled index/twiddle
    tables).  Any mutation of the pass array changes it, so a stale
    {!vreport} can be detected and never trusted. *)

val of_ir : ?fuse:bool -> ?baseline:bool -> ?layout:layout -> Ir.t -> t
(** [fuse] (default [true]) runs {!Optimize.fuse_data} before
    materializing.  [baseline] (default [false]) swaps every kernel for
    its {!Codelet.legacy} implementation — the pre-optimization hot path,
    for benchmark ablations only.  [layout] (default [Interleaved])
    selects the buffer layout; [Split] attaches planar kernels to every
    pass (ν-lane-blocked where the [vec] tags and materialized strides
    permit — counted under [vec.pass_blocked]/[vec.pass_scalar]). *)

val of_formula :
  ?fuse:bool -> ?baseline:bool -> ?layout:layout -> ?explicit_data:bool ->
  Spiral_spl.Formula.t -> t
(** As {!of_ir} ∘ {!Ir.of_formula}.  [fuse] defaults to [true] except
    when [explicit_data] is set (an explicit plan exists to show the
    unmerged execution; pass [~fuse:true] explicitly to measure fusion
    against it). *)

val context : t -> ctx
(** The plan's own (sequential-execution) context. *)

val make_ctx : t -> ctx
(** A fresh context for this plan — one per concurrent worker. *)

val ensure_worker_ctxs : t -> int -> unit
(** [ensure_worker_ctxs t p] grows [t.wctx] to at least [p] contexts.
    Call before handing the plan to [p] workers; not itself thread-safe. *)

val worker_ctx : t -> int -> ctx
(** [worker_ctx t w] is the context of worker [w], growing the cache if
    needed (call {!ensure_worker_ctxs} first when used concurrently). *)

val run_pass_range :
  ctx -> pass -> src:float array -> dst:float array -> lo:int -> hi:int ->
  unit
(** Execute iterations [lo, hi) of a pass.  The building block for both
    sequential and multi-threaded execution; allocation-free for strided
    passes. *)

val pass_src : t -> x:float array -> int -> float array
(** Source buffer of pass [k] under the ping-pong schedule (pass 0 reads
    [x], intermediates alternate [tmp_a]/[tmp_b]). *)

val pass_dst : t -> y:float array -> int -> float array
(** Destination buffer of pass [k] (the last pass writes [y]). *)

val src_dst_of_pass :
  t -> x:float array -> y:float array -> int -> float array * float array
(** [pass_src] and [pass_dst] as a pair (allocates; analysis use). *)

val iter_addresses : pass -> int -> (int -> int) * (int -> int)
(** [iter_addresses p i] is the (gather, scatter) element-index functions
    of iteration [i] — the simulator's view of a pass's memory footprint
    (it needs each iteration's reads before its writes), and the
    validator's for its sampled per-point checks.  Allocates closures;
    not an executor path.  Whole-range footprint analyses use
    {!footprint}. *)

val footprint : pass -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** [footprint p ~lo ~hi f] calls [f i g s] for every point of iterations
    [lo] to [hi - 1], in execution order (iteration-major, then element): [g]
    and [s] are the gather and scatter positions of element [l] of
    iteration [i], exactly as {!iter_addresses}[ p i] gives them.  Walks
    the materialized odometer (or the index tables) without allocating
    beyond one digit buffer per call — the path of the barrier-elision,
    false-sharing and validation footprints. *)

val clone : t -> t
(** A plan sharing all immutable state (kernels, index tables, twiddles)
    but with fresh intermediate buffers and contexts — for concurrent
    execution of the same transform from several threads.  Cached
    analysis results (elision masks, false-sharing counts, the
    {!vreport} of validation runs that completed before the clone) are
    shared too: they depend only on the shared state, so re-deriving
    them on a clone would be pure waste. *)

val execute : t -> Spiral_util.Cvec.t -> Spiral_util.Cvec.t -> unit
(** [execute plan x y] computes [y = A x] sequentially.  [x] and [y] must
    be distinct vectors of length [n] — in the plan's own layout: a
    [Split] plan reads and writes planar buffers (re plane then im
    plane; see {!layout}).  Not re-entrant: a plan owns its intermediate
    buffers and context ({!clone} for concurrent use). *)

val total_flops : t -> int

val describe : t -> string
(** One line per pass: radix, count, addressing kind, parallelism. *)
