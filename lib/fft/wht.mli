(** Walsh-Hadamard transforms: the second transform of the framework
    (Section 2.2 — SPL covers "a large class of linear transforms").
    Same rewriting machinery, no twiddle factors. *)

type t

val plan : ?threads:int -> ?mu:int -> int -> t
(** [plan n] for [n] a power of two.  With [threads > 1] and
    [(pµ) | m, n] for some split, the parallel derivation of
    [Derive.multicore_wht] is used. *)

val n : t -> int
val parallel : t -> bool

val execute : t -> Spiral_util.Cvec.t -> Spiral_util.Cvec.t

val execute_into : t -> src:Spiral_util.Cvec.t -> dst:Spiral_util.Cvec.t -> unit
(** As {!execute} into a caller-provided vector; allocation-free in
    steady state.  [src] and [dst] must be distinct. *)

val destroy : t -> unit

val with_plan : ?threads:int -> ?mu:int -> int -> (t -> 'a) -> 'a
