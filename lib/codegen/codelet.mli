(** Codelets: straight-line kernels for small transforms, the base cases of
    compiled plans (the analogue of FFTW's codelets / Spiral's fully
    unrolled basic blocks).

    A codelet of radix [r] computes an [r]-point transform.  The entry
    points differ only in addressing: strided (affine index functions, the
    fast path), unit-strided (the dominant contiguous [gl = sl = 1] case,
    monomorphized so the inner loop is straight-line loads/stores), or
    indexed (precomputed index tables) — each optionally with a twiddle
    table applied to the inputs on load ("load scale").  Twiddled entry
    points are bit-identical to scaling the inputs first (same products,
    same order) and running the untwiddled kernel.  Complex data is
    interleaved: element [k] occupies [x.(2k), x.(2k+1)].

    Every entry point takes a {!scratch} record as its first argument and
    performs no allocation: callers preallocate one scratch per worker
    ({!make_scratch}) and reuse it across calls.  A scratch must not be
    shared between concurrently executing domains. *)

type scratch = {
  stage : float array;
  out : float array;
  h1 : float array;
  h2 : float array;
}
(** Preallocated per-worker working storage (each buffer holds
    [max_radix] complex elements).  [stage] receives gathered or
    twiddle-scaled inputs on the paths that still stage them: every entry
    point of {!make}-built codelets (the dense-matrix DFT fallback,
    {!wht}, {!copy}, custom kernels), the untwiddled [indexed] entry
    points of dft16/dft32, and the planar [Vcodelet] kernels.  The
    unrolled DFT codelets (radices 1, 2, 3, 4, 8, 16, 32) apply twiddles
    in registers as they load, so none of their twiddled entry points
    touches [stage].  [out] holds the result of staged kernels; [h1]/[h2]
    are the half-transform buffers of the recursive dft32/dft16
    kernels. *)

val make_scratch : unit -> scratch

type t = {
  radix : int;
  flops : int;  (** Real additions + multiplications per invocation. *)
  name : string;
  strided :
    scratch -> float array -> int -> int -> float array -> int -> int -> unit;
      (** [strided cs src g0 gl dst s0 sl]: reads element [l] at complex
          index [g0 + l*gl] of [src], writes at [s0 + l*sl] of [dst]. *)
  strided_u : scratch -> float array -> int -> float array -> int -> unit;
      (** [strided_u cs src g0 dst s0] ≡ [strided cs src g0 1 dst s0 1]:
          the contiguous fast path. *)
  strided_tw :
    scratch -> float array -> int -> int -> float array -> int -> int ->
    float array -> int -> unit;
      (** As [strided] with inputs multiplied by twiddles: element [l] is
          scaled by the complex number at [tw.(2*(t0+l)), tw.(2*(t0+l)+1)]. *)
  strided_u_tw :
    scratch -> float array -> int -> float array -> int ->
    float array -> int -> unit;
      (** Contiguous [strided_tw]. *)
  indexed :
    scratch -> float array -> int array -> int -> float array -> int array ->
    int -> unit;
      (** [indexed cs src gidx gb dst sidx sb]: element [l] read at complex
          index [gidx.(gb + l)], written at [sidx.(sb + l)]. *)
  indexed_tw :
    scratch -> float array -> int array -> int -> float array -> int array ->
    int -> float array -> int -> unit;
}

val dft : int -> t
(** [dft r] is the DFT codelet of size [r]: unrolled kernels for
    r ∈ {1, 2, 3, 4, 8, 16, 32}, a precomputed dense matrix-vector kernel
    otherwise.  Results are cached under a lock, so concurrent planners
    on several domains get the same physical instance per radix. *)

val wht : int -> t
(** Walsh-Hadamard codelet, [r] a power of two (in-register butterflies). *)

val copy : int -> t
(** Identity "codelet" of size [r] — used for explicit permutation or
    scaling passes, where all the work is in the addressing. *)

val max_radix : int
(** Largest supported codelet size (scratch buffers are sized to it). *)

val make :
  radix:int -> flops:int -> name:string ->
  (float array -> float array -> unit) -> t
(** [make ~radix ~flops ~name compute] builds all entry points from a
    local kernel [compute inp out] on contiguous length-[2*radix] buffers
    (staged through the caller's scratch, so still allocation-free).
    Used for custom transforms; the DFT/WHT codelets use fused addressing
    on the hot paths instead.  [radix] must not exceed {!max_radix}. *)

val legacy : t -> t
(** The pre-optimization implementation of a built-in codelet (per-call
    scratch allocation, closure-based addressing) behind the current
    interface: the measured baseline for the wall-clock benchmark
    ablation and a bit-for-bit reference in tests.  Custom codelets are
    returned unchanged.  Not for production plans. *)
