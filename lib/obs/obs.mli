(** Lightweight observability: tracing spans, a metrics registry, and a
    reporting surface.

    The compilation pipeline ([params → sched → lowered → optimized →
    stats]), the evolutionary search, the tuner, the differential
    fuzzer and the benchmark harness all emit telemetry through this
    module, so "where does the time go?" has one answer for every
    consumer:

    - {b spans} — hierarchical wall-clock timings with attributes,
      streamed to a JSONL trace file while one is open ({!set_sink})
      and otherwise kept nowhere;
    - {b metrics} — named counters, gauges and fixed log-scale-bucket
      histograms, interned in a process-global registry;
    - {b reporting} — {!metrics} / {!to_jsonl} for programmatic
      access, {!load_jsonl} + {!pp_events} for the [imtp report]
      subcommand, and {!folded} for flamegraph-friendly folded stacks.

    The span and metric {e names} emitted by this repository are a
    stable contract documented in DESIGN.md ("Observability"); tooling
    may rely on them across versions.

    Everything here is deliberately simple: no external dependencies
    beyond [unix], and instrumentation never changes the instrumented
    computation — building an artifact under an active trace yields
    the same key, schedule, programs (up to the run-unique variable
    identifiers) and stats as building it with observability reset
    (property-tested in [test/test_obs.ml]).

    {b Thread safety.}  The module is safe to use from multiple
    domains concurrently: span identifiers are allocated atomically,
    each domain tracks its own stack of open spans (so {!span} nesting
    and {!add_attr} are race-free per domain), and the trace sink and
    the metrics registry are guarded by one internal mutex, which a
    finished span takes only while a sink is open.  Spans opened on a worker domain are parented to
    the domain's innermost open span, or — when the worker runs a task
    on behalf of a span open elsewhere (see {!with_ambient_parent}) —
    to that ambient span, so traces from parallel batches remain
    well-nested.  Metric updates ({!incr}, {!observe}, {!set_gauge})
    are atomic with respect to each other and to {!metrics}. *)

(** {1 Attribute values} *)

(** Attribute values attached to spans (structured replacements for
    ad-hoc log formatting). *)
type value = Bool of bool | Int of int | Float of float | Str of string

(** {1 JSON}

    A minimal JSON implementation — just enough to write and re-read
    the JSONL trace format without an external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float  (** all JSON numbers, integers included. *)
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line rendering; floats print with enough digits
      ([%.17g]) to round-trip bit-exactly. *)

  val of_string : string -> (t, string) result
  (** Parse one JSON value; [Error] carries a position-annotated
      message.  Accepts exactly what {!to_string} emits (plus
      insignificant whitespace). *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on missing fields or non-objects. *)
end

(** {1 Spans} *)

type span = {
  id : int;  (** unique per process run, in start order. *)
  parent : int option;  (** enclosing span at start time, if any. *)
  name : string;  (** taxonomy name, e.g. ["engine.lower"]. *)
  start_s : float;  (** seconds since the process' first observation. *)
  dur_s : float;  (** wall-clock duration, seconds. *)
  attrs : (string * value) list;  (** key/value attributes, in order. *)
}
(** A finished span.  Spans are written when they {e finish}, so in a
    trace file a child precedes its parent. *)

val span : ?attrs:(string * value) list -> name:string -> (unit -> 'a) -> 'a
(** [span ~name f] times [f ()] as a span named [name], parented to
    the innermost span currently open on the calling domain (falling
    back to the domain's ambient parent, see {!with_ambient_parent}).
    The span is written to the sink, if one is set, whether [f]
    returns or raises. *)

val span_timed :
  ?attrs:(string * value) list -> name:string -> (unit -> 'a) -> 'a * float
(** [span_timed ~name f] is {!span} that also returns the recorded
    span's [dur_s], so a caller can charge the same duration elsewhere
    (a histogram, a counter) without reading the clock again. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the calling domain's innermost open span
    (no-op outside any span) — for values only known mid-flight, e.g.
    a cache-hit flag. *)

val current_span_id : unit -> int option
(** The id of the calling domain's innermost open span (or its ambient
    parent when none is open) — capture this before dispatching work to
    another domain and re-establish it there with
    {!with_ambient_parent}. *)

val with_ambient_parent : int option -> (unit -> 'a) -> 'a
(** [with_ambient_parent parent f] runs [f] with the calling domain's
    ambient parent set to [parent]: spans opened by [f] outside any
    other open span are parented to it instead of being roots.  This is
    how a worker-pool task keeps its spans nested under the span that
    dispatched the batch.  The previous ambient parent is restored when
    [f] returns or raises. *)

val now_s : unit -> float
(** Seconds since the process' first observation (wall clock) — the
    timescale of {!span.start_s}. *)

(** {1 Metrics registry}

    Metrics are interned by name on first use; using the same name at
    two call sites addresses the same metric.  Kinds live in separate
    namespaces, but the emitted taxonomy never reuses a name across
    kinds. *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to a counter (monotonically increasing). *)

val counter_value : string -> int
(** Current counter value; 0 for a counter never incremented. *)

val set_gauge : string -> float -> unit
(** Set a gauge (last-value-wins, e.g. best-latency-so-far). *)

val gauge_value : string -> float option

val observe : string -> float -> unit
(** Record one observation into a histogram. *)

(** {2 Histogram buckets}

    All histograms share one fixed log-scale bucket layout: 5 buckets
    per decade from 1e-9 to 1e3 (60 finite buckets) plus one overflow
    bucket, so latencies from nanoseconds to tens of minutes resolve
    to ±58 % without per-metric configuration. *)

val bucket_count : int
(** Total buckets including the overflow bucket (61). *)

val bucket_upper_bound : int -> float
(** Inclusive upper bound of bucket [i]; [infinity] for the overflow
    bucket.  Bucket [i] holds observations [v] with
    [bucket_upper_bound (i-1) < v <= bucket_upper_bound i]
    (bucket 0 additionally holds everything [<= bucket_upper_bound 0],
    including non-positive values). *)

val bucket_index : float -> int
(** The bucket an observation falls into (total order consistent with
    {!bucket_upper_bound}; NaN counts as bucket 0). *)

type hist = {
  count : int;
  sum : float;
  vmin : float;  (** smallest observation ([infinity] when empty). *)
  vmax : float;  (** largest observation ([neg_infinity] when empty). *)
  buckets : (float * int) list;
      (** non-empty buckets only, as [(upper_bound, count)], ascending. *)
}
(** Immutable histogram snapshot. *)

val hist_quantile : hist -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile (0..1) from the
    bucket counts: the upper bound of the first bucket reaching the
    target rank, clamped to [vmax].  [nan] when the histogram is
    empty. *)

(** {1 Metric readings and the JSONL trace format} *)

(** One telemetry event — a finished span or a metric reading. *)
type event =
  | Span of span
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * hist

val metrics : unit -> event list
(** Every registered metric: counters, gauges and histograms, each kind
    sorted by name.  Pure read — the registry is unchanged.  This is
    what long-running consumers (the serving daemon's [stats] endpoint)
    poll; spans are read back from a trace file ({!with_sink},
    {!load_jsonl}). *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
(** Inverse of {!event_to_json}.  Integral attribute values come back
    as [Int] (JSON does not distinguish [2] from [2.0]); everything
    else round-trips exactly. *)

val to_jsonl : event list -> string
(** One JSON object per line — the trace-file format. *)

val load_jsonl : string -> (event list, string) result
(** Read a trace file written by {!to_jsonl} or a {!set_sink} run;
    blank lines are skipped, the first malformed line is an [Error]. *)

(** {1 The trace sink} *)

val set_sink : string -> unit
(** Start streaming: truncate/create the file and append every span as
    it finishes.  Replaces any previously active sink (closing it
    properly, metrics included). *)

val close_sink : unit -> unit
(** Append a final metrics snapshot (counters, gauges, histograms) and
    close the file.  No-op when no sink is active. *)

val sink_open : unit -> bool
(** Whether a trace sink is open: one atomic read, no lock.  Attributes
    reach nothing but the sink, so a hot span may build them only while
    this holds. *)

val with_sink : string option -> (unit -> 'a) -> 'a
(** [with_sink (Some path) f] brackets [f] with {!set_sink} /
    {!close_sink} (closing on exceptions too); [with_sink None f] is
    just [f ()].  This is what the CLI's [--trace FILE] flag calls. *)

(** {1 Reporting} *)

val pp_events : Format.formatter -> event list -> unit
(** Human-readable report: per-span-name latency table (count, total,
    mean, p50 / p90 / p99 computed from the exact durations), then
    counters, gauges and histogram quantiles, then derived rates
    (engine cache hit rate when the [engine.cache.*] counters are
    present).  This is [imtp report FILE]. *)

val folded : event list -> (string * int) list
(** Flamegraph-friendly folded stacks: for every span, the
    [;]-separated path of names from its outermost ancestor, mapped to
    the span's {e self} time (duration minus child durations) in
    integer microseconds, summed over occurrences and sorted by path.
    Feed the [.folded] output to [flamegraph.pl] or speedscope. *)

(** {1 Lifecycle} *)

val reset : unit -> unit
(** Clear open-span state and all metrics — for tests.  The sink and
    the process epoch are left untouched. *)
