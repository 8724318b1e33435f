(** Global named event counters for degradation and robustness telemetry.

    The runtime bumps counters when it survives something that should not
    happen in a healthy run — a barrier timeout, a pool rebuild, a
    sequential fallback, a salvaged wisdom line — so callers and
    operators can distinguish "fast because everything worked" from
    "correct because we degraded".  Counting is mutex-protected and safe
    from any domain.  {!incr}, {!get} and {!observe} allocate nothing, so
    per-execution counters (e.g. the parallel executor's) cost one
    uncontended lock, never minor-heap traffic; they still stay out of
    the per-sample hot loop. *)

val incr : ?by:int -> string -> unit
(** [incr name] adds [by] (default 1) to the named counter, creating it
    at 0 first if needed. *)

val get : string -> int
(** Current value (0 for counters never incremented). *)

val snapshot : unit -> (string * int) list
(** All nonzero counters, sorted by name. *)

val reset : unit -> unit
(** Zero every counter and observation (test isolation). *)

(** {2 Observations}

    Bounded-memory summaries of a measured quantity (count, sum, max) —
    enough to assert "every error reply left within [t] µs" without
    storing per-request samples.  Same locking discipline as the
    counters. *)

type obs = { count : int; sum : float; max : float }

val observe : string -> float -> unit
(** [observe name v] folds [v] into the named summary, creating it on
    first use. *)

val observation : string -> obs option
(** Current summary, [None] if nothing was ever observed. *)

val observations : unit -> (string * obs) list
(** All summaries, sorted by name. *)

val to_prometheus : unit -> string
(** Every nonzero counter in the Prometheus text exposition format, as
    samples of one metric family [spiral_events_total] with the counter
    name as a [name] label; observation summaries follow as
    [spiral_observed{name, stat="count"|"sum"|"max"}] samples. *)
