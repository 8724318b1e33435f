(** Batched transforms: many independent DFTs of the same size in one
    call — the "apply an FFT to every row" workload.

    A batch is the formula [I_b ⊗ DFT_n]; rule (9) of the paper
    parallelizes it directly ([I_p ⊗∥ (I_{b/p} ⊗ DFT_n)]), giving each
    processor a contiguous block of transforms: load-balanced,
    false-sharing free, one barrier per pass. *)

type t

val plan :
  ?threads:int -> ?mu:int -> ?vec:Planner.vec_request -> count:int -> int -> t
(** [plan ~count n]: [count] transforms of size [n], stored back to back
    (row-major [count × n]).  [vec] requests short-vector lowering of
    the batched formula (falls back to scalar when the rules do not
    apply). *)

val count : t -> int
val n : t -> int
val parallel : t -> bool
val formula : t -> Spiral_spl.Formula.t

val execute : t -> Spiral_util.Cvec.t -> Spiral_util.Cvec.t
(** Input and output are [count * n] complex elements. *)

val execute_into : t -> src:Spiral_util.Cvec.t -> dst:Spiral_util.Cvec.t -> unit
(** As {!execute} into a caller-provided vector; allocation-free in
    steady state.  [src] and [dst] must be distinct. *)

val execute_many : t -> Spiral_util.Cvec.t array -> Spiral_util.Cvec.t array
(** Transform a whole sequence of inputs inside a single parallel region
    ({!Spiral_smp.Par_exec.execute_many}): one pool dispatch and one
    join for the entire batch instead of one per input.  Bit-identical
    to mapping {!execute}. *)

val destroy : t -> unit

val with_plan :
  ?threads:int ->
  ?mu:int ->
  ?vec:Planner.vec_request ->
  count:int ->
  int ->
  (t -> 'a) ->
  'a
