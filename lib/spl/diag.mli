(** Diagonal matrices occurring in SPL formulas, kept symbolic so that the
    parallelization rule (11) of the paper — splitting a diagonal into a
    direct sum of sub-diagonals — is exact and cheap. *)

type t =
  | Twiddle of int * int
      (** [Twiddle (m, n)] is the twiddle diagonal [D_{m,n}] of the
          Cooley-Tukey rule; size [m * n], entry [i*n + j] is
          [ω_{mn}^{i·j}]. *)
  | Segment of t * int * int
      (** [Segment (d, offset, len)] is the contiguous slice
          [d.(offset) … d.(offset + len - 1)] as a diagonal of size [len]. *)
  | Explicit of Complex.t array  (** Arbitrary diagonal (for tests). *)

val size : t -> int

val entry : t -> int -> Complex.t
(** [entry d i] is the [i]-th diagonal entry. *)

type roots
(** A memo of root-of-unity tables, keyed by the order [N]: entry [k] of
    the order-[N] table is [Twiddle.omega N k], all computed the first
    time the memo meets order [N].
    One memo serves one IR compilation ([Spiral_codegen.Ir.of_formula]);
    it is never global, so tables live exactly as long as the entry
    functions that captured them. *)

val roots : unit -> roots
(** A fresh, empty memo. *)

val memo_entry : roots -> t -> int -> Complex.t
(** [memo_entry r d] is {!entry}[ d] served from [r]'s tables, bit for bit
    (each twiddle is the same [Twiddle.omega] value).  The table is
    looked up (and created when missing) at partial application. *)

val roots_built : unit -> int
(** Number of root tables created by the calling domain so far (tests
    use it to check that two compilations share no memo). *)

val to_array : t -> Complex.t array

val to_table : t -> float array
(** Interleaved re/im table of the diagonal, for kernels. *)

val split : t -> int -> t list
(** [split d p] cuts [d] into [p] contiguous segments of equal length
    (rule (11) of the paper).
    @raise Invalid_argument if [p] does not divide [size d]. *)

val pp : Format.formatter -> t -> unit
