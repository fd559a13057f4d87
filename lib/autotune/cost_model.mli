(** Online cost model guiding the evolutionary search (§4: "an
    evolutionary search guided by a cost model").

    A ridge regression over schedule-parameter features predicting
    log-latency, refit incrementally from every hardware (simulator)
    measurement — a deliberately small stand-in for TVM's gradient
    boosted trees that preserves the search dynamics: the model ranks
    unmeasured mutations so only promising candidates reach the
    (expensive) measurement step.  The regression is {!Cost_learn}'s,
    over this module's 11 features and without holdout-error tracking. *)

type t
(** A mutable model, refit lazily after each {!observe}. *)

val create : unit -> t
(** An untrained model ({!predict} returns 0 until trained). *)

val features :
  Imtp_upmem.Config.t -> Imtp_workload.Op.t -> Sketch.params -> float array
(** The feature vector for one candidate: log-scaled schedule
    parameters and workload shape terms, the op's work read from its
    {!Sketch.table}. *)

val observe : t -> float array -> float -> unit
(** [observe m x latency_s] adds a training sample ({!Cost_learn.add}). *)

val predict : t -> float array -> float
(** Predicted log-latency; 0 until at least 8 samples are seen. *)

val trained : t -> bool
(** Whether enough samples were seen for {!predict} to be informative. *)

val sample_count : t -> int
(** Number of training samples observed so far. *)
