(** Translation validation of optimized plans.

    Every plan-changing transformation in the pipeline emits a
    {e certificate} — the data an independent checker needs to verify
    the rewrite without trusting the code that performed it:

    - {!Spiral_codegen.Optimize.fuse_data_certified} records, per fused
      pass, which original passes were composed into its gather, scatter
      and load-scale ({!check_fusion} replays the composition and checks
      totality, bijectivity on [0, n) and pointwise equality of the
      rewritten index functions);
    - [Spiral_smp.Par_exec.elision_witness] returns per-boundary
      read/write-set witnesses ({!check_elision} re-derives the
      footprints with {!Spiral_codegen.Plan.footprint} and
      re-checks DESIGN.md §5a's conditions A/B and the no-chain rule);
    - the planner's vector lowering carries the scalar and lowered
      formulas ({!check_vectorization} compares their structural
      semantics);
    - the µ-aligned Block partition and the ν-blocked split odometer are
      checked for exact coverage — every (pass, iteration) executed
      exactly once ({!check_partition}, {!check_split_coverage}).

    Validation runs at plan time only: {!validate_plan} leaves nothing
    on the execution hot path.  Obligations over large iteration spaces
    are densely sampled by default and checked exhaustively under
    {!Exhaustive} ([--paranoid] / [SPIRAL_PARANOID=1]).  Results are
    recorded on the plan keyed by {!Spiral_codegen.Plan.digest}, so
    clones share them and mutated plans cannot inherit a stale
    certificate.  Outcomes are surfaced as ["validate.*"] counters; a
    failed obligation raises {!Validation_failed}, which [Engine] routes
    to the sequential fallback instead of executing the suspect plan. *)

exception Validation_failed of string

type mode =
  | Off  (** Discharge nothing (trust the optimizer). *)
  | Sampled
      (** Structural obligations in full; pointwise obligations over
          iteration spaces larger than {!exhaustive_threshold} on a
          dense deterministic sample.  The default. *)
  | Exhaustive
      (** Every obligation on every point ([--paranoid]). *)

val mode : mode ref
(** Process-wide default, consulted when a caller passes no explicit
    mode.  Initialized to {!Exhaustive} when the [SPIRAL_PARANOID]
    environment variable is set to [1]/[true]/[yes]/[on] (how the dune
    [@paranoid] alias forces exhaustive validation over the whole test
    suite), {!Sampled} otherwise. *)

val mode_to_string : mode -> string

val exhaustive_threshold : int
(** Iteration spaces at most this large are checked exhaustively even
    under {!Sampled}. *)

type vec_cert = {
  vc_scalar : Spiral_spl.Formula.t;  (** The formula before lowering. *)
  vc_vector : Spiral_spl.Formula.t;  (** The ν-lowered formula. *)
  vc_nu : int;  (** Claimed vector length. *)
}
(** Certificate of a short-vector lowering
    ([Planner.vectorize_formula_certified]). *)

val check_fusion :
  ?mode:mode -> Spiral_codegen.Optimize.fusion_cert -> (unit, string) result
(** Discharge a fusion certificate: the claims partition the original
    pass list exactly once in order; every chained pass is a total
    ([count = n]) radix-1 pass with behaviourally-identity kernel,
    in-range gather and bijective scatter; replaying the composition
    reproduces the fused gather/scatter/load-scale pointwise (sampled or
    exhaustive); fused compute passes keep their original kernel and
    shape.  Outside [Exhaustive] mode, a claim that composed nothing and
    whose fused pass is physically the original pass record is
    discharged without a replay (counted under
    ["validate.fusion_identity"]): the record carries the original
    gather, scatter, load-scale and kernel. *)

val check_partition :
  ?mode:mode -> workers:int -> Spiral_codegen.Plan.t -> (unit, string) result
(** Every pass's (µ-aligned Block) worker ranges partition [0, count)
    exactly — no gap, no overlap — and every internal boundary of a
    µ-tagged pass is aligned to µ/gcd(µ, radix) iterations. *)

val check_elision :
  ?mode:mode -> workers:int -> Spiral_codegen.Plan.t -> (unit, string) result
(** Obtain the mask and witnesses from
    [Par_exec.elision_witness] and discharge them via
    {!check_elision_claims}. *)

val check_elision_claims :
  ?mode:mode ->
  workers:int ->
  Spiral_codegen.Plan.t ->
  bool array * Spiral_smp.Par_exec.boundary_witness list ->
  (unit, string) result
(** Discharge an elision mask against its witnesses without trusting the
    analysis: no chain of three consecutive elisions, and every length-2
    chain satisfies condition C (the passes bracketing it agree
    pointwise on which worker writes each shared ping-pong position,
    re-derived from the materialized addressing); every elided boundary
    joins two parallel passes and carries a witness whose writer/reader
    arrays match a fresh re-derivation from [Plan.iter_addresses];
    conditions A (each worker reads only its own writes) and B (no
    overwrite of another worker's pending reads when the ping-pong
    buffers alias) hold on the re-derived footprints.  Exposed
    separately so tests can present tampered claims. *)

val check_split_coverage :
  ?mode:mode -> workers:int -> Spiral_codegen.Plan.t -> (unit, string) result
(** For a split-layout plan: every pass carries a planar kernel; for
    ν-blocked passes the addressing is strided with ν dividing the
    innermost extent, and replaying the blocked odometer over the
    sequential range and every worker's ranges covers each iteration
    exactly once, with no block straddling a digit carry and block
    addresses advancing by exactly the innermost stride. *)

val check_tile_coverage :
  ?mode:mode -> Spiral_codegen.Plan.t -> (unit, string) result
(** For every radix-r pure data-movement pass (zero-flop kernel — the 2D
    tiled transpose): no load-scale table, the kernel behaves as the
    radix-r identity copy on a probe, and over the full iteration walk
    the materialized gather reads every source position exactly once
    while the scatter writes every destination position exactly once
    (the tile odometer has no seams or double-writes).  Worker
    schedules inherit the coverage via {!check_partition}. *)

val check_vectorization : ?mode:mode -> vec_cert -> (unit, string) result
(** The lowered formula preserves dimension and its structural semantics
    ({!Spiral_spl.Semantics.apply}) agrees with the scalar formula on a
    deterministic pseudo-random vector.  Skipped (counted under
    ["validate.vec_skipped"]) above 2^12 points ({!Sampled}) / 2^14
    ({!Exhaustive}), where structural evaluation stops being a plan-time
    cost. *)

val validate_plan_result :
  ?mode:mode ->
  ?workers:int ->
  ?vec:vec_cert ->
  Spiral_codegen.Plan.t ->
  (unit, string) result
(** Discharge every certificate of [plan] for execution on [workers]
    (default 1): fusion and vec lowering (worker-independent), partition
    exactness, barrier elision and split coverage (per worker count).
    Results are cached on the plan ({!Spiral_codegen.Plan.vreport},
    keyed by its {!Spiral_codegen.Plan.digest}): revalidating an
    unchanged plan — or a {!Spiral_codegen.Plan.clone} of one — is a
    cache hit (["validate.cached"]), while a digest mismatch discards
    the stale report (["validate.stale_cert"]) and revalidates.  Each
    discharged obligation passes the fault-injection site
    ["validate.check"] and increments ["validate.check"]; runs are
    counted under ["validate.plan"] and ["validate.sampled"] /
    ["validate.exhaustive"], failures under ["validate.failed"].  Not
    thread-safe with respect to one plan. *)

val validate_plan :
  ?mode:mode ->
  ?workers:int ->
  ?vec:vec_cert ->
  Spiral_codegen.Plan.t ->
  unit
(** {!validate_plan_result}, raising {!Validation_failed} on a failed
    obligation. *)
