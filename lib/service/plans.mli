(** Descriptor-keyed table of executable plans — the service's view of
    the transform library.

    One resident daemon serves mixed descriptor kinds (1-D, 2-D,
    batched, real-input) from a single process: each descriptor string
    is parsed into a {!Spiral_fft.Problem}, admission-checked against a
    total-size cap, dispatched to its front-end ({!Spiral_fft.Dft},
    {!Spiral_fft.Batch}, {!Spiral_fft.Dft2d}, {!Spiral_fft.Wht},
    {!Spiral_fft.Rfft}, {!Spiral_fft.Dct}), and cached.  Beyond
    [max_plans] entries the least-recently-used plan is destroyed
    (counted under ["service.plan_evicted_lru"]).

    Every descriptor also has a sequential variant ([lookup ~seq:true],
    planned at [threads = 1]) — the degraded path the server switches to
    when the parallel runtime is sick.

    Payload conventions (float64 counts; complex data interleaved
    re/im):
    - [dft]/[dft2d]/[wht] and batched [dft]: in = out = 2 × total;
    - [rfft[n]f]: in = n reals, out = 2 × (n/2 + 1) (half-spectrum);
    - [rfft[n]i]: the reverse;
    - [dct[n]f]/[dct[n]i]: in = out = n reals.

    {b An entry is single-caller.}  Its plan owns scratch state (packing
    buffers, conjugation buffers, the engine's ping-pong vectors) and
    its {!output} buffer, so [exec], [exec_into] and {!output} of one
    entry must never run concurrently: two callers corrupt each other's
    results.  The server obeys this by construction — only its executor
    domain executes — and a concurrent user wants a table of its own. *)

type entry = {
  descriptor : string;
  in_floats : int;
  out_floats : int;
  parallel : bool;
  exec : float array -> float array;
      (** runs the transform into a fresh array; may raise (the server
          catches).  [exec x] is [exec_into x] on a new zeroed array. *)
  exec_into : float array -> float array -> unit;
      (** [exec_into src dst] runs the transform of [src]
          ([in_floats]) into the distinct [dst] ([out_floats]) without
          allocating in steady state; may raise *)
  destroy : unit -> unit;
  mutable out : float array;  (** {!output}'s storage; [[||]] until then *)
  mutable last_used : float;
}

type t

val create :
  ?threads:int ->
  ?mu:int ->
  ?max_total:int ->
  ?max_plans:int ->
  unit ->
  t
(** Defaults: [threads = 1], [mu = 4],
    [max_total = Engine.default_total_limit], [max_plans = 64]. *)

val io_floats :
  Spiral_fft.Problem.t -> (int * int, Spiral_fft.Engine.error) result
(** [(in_floats, out_floats)] for a problem, without planning it —
    answers Info requests from the reader thread for free. *)

val lookup :
  ?seq:bool -> t -> string -> (entry, Spiral_fft.Engine.error) result
(** Fetch the descriptor's plan, or parse, admission-check and plan it.
    A cache hit skips the parse: entries exist only for descriptor
    strings that already parsed under this table's [max_total].
    [~seq:true] returns the sequential variant.  Never raises. *)

val output : entry -> float array
(** The entry's own [out_floats] output buffer, allocated on first call
    and reused after — the target of a server execution, valid until
    the entry's next run.  Never allocated by {!lookup} or [exec]. *)

val evict : t -> string -> unit
(** Destroy and forget both variants of a descriptor (its plan may be
    poisoned); the next {!lookup} replans.  Counted under
    ["service.plan_evicted"]. *)

val size : t -> int

val destroy_all : t -> unit
