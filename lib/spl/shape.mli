(** Structural shape analysis: recognizing formulas that denote pure
    permutations or pure diagonals and extracting their semantics as index
    or entry functions.

    Spiral's loop merging [11] folds such factors into the gather/scatter
    index functions and twiddle tables of adjacent computation loops; the
    compiler ([Spiral_codegen.Ir]) uses these extractors to do the same. *)

val perm_sigma : Formula.t -> (int -> int) option
(** [perm_sigma f] is [Some σ] when [f] denotes a permutation matrix
    ([y.(k) = x.(σ k)]); covers [Perm], [I], tensor products, compositions
    and the tagged constructs ([ParTensor], [CacheTensor]) of permutations. *)

val diag_entry : ?roots:Diag.roots -> Formula.t -> (int -> Complex.t) option
(** [diag_entry f] is [Some d] when [f] denotes a diagonal matrix; covers
    [Diag], [I], direct sums of diagonals ([DirectSum], [ParDirectSum]) and
    tensor products with identities.  With [roots], twiddle entries are
    served from that memo ({!Diag.memo_entry}, bit-identical); without,
    they are computed directly ({!Diag.entry}). *)

val is_data : Formula.t -> bool
(** [true] when the formula is permutation- or diagonal-shaped (pure data
    movement / scaling, no butterflies). *)
