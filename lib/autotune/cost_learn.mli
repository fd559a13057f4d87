(** Learned cost model over lowered TIR, gating which candidates reach
    the simulator (§4's "evolutionary search guided by a cost model",
    in the style of Adams et al. 2019: cheap static features plus an
    online-trained regressor ranking populations before measurement).

    Unlike {!Cost_model}, whose features are the sketch parameters
    themselves, this model walks the {e lowered, pass-optimized} TIR of
    an {!Imtp_engine.Engine.prepared} candidate — loop extents and
    nesting depth, DPU/tasklet grid, analytic DMA traffic
    ({!Imtp_tir.Cost.dma_estimate}), WRAM footprint, transfer-mode mix,
    rfactor structure — so it sees exactly the program the simulator
    would time, including everything the PIM-aware passes changed.

    Determinism contract: feature extraction is a pure function of the
    program (bit-identical for cache-hit and fresh-built candidates),
    training is a pure fold over the measured-trial history, and
    {!rank} breaks ties by proposal order — so a model-gated search
    remains a pure function of (trial history, seed), preserving
    [batch ~jobs:n] equivalence and replayability. *)

val dim : int
(** Fixed feature-vector width. *)

val feature_names : string array
(** Stable names, index-aligned with {!features} ([Array.length] =
    {!dim}). *)

val features : Imtp_tir.Program.t -> float array
(** Extract the feature vector from a lowered program in one analytic
    walk (evaluation cost independent of tensor sizes).  Every
    component is finite for any program: unresolvable loop extents
    count as 1 and all magnitudes pass through [log2 (1 + x)].  This
    is {!Imtp_engine.Features.of_program}; the search reads it through
    {!Imtp_engine.Engine.features}, which memoizes it per candidate. *)

type t
(** Online ridge regression predicting log-latency, refit lazily from
    the accumulated normal equations — an [observe] invalidates the
    cached weights and the next [predict] refits, so refitting once per
    search generation costs one small solve.  This is the one ridge
    solver: {!Cost_model} is the same regression over sketch-parameter
    features. *)

val create : ?lambda:float -> ?dim:int -> unit -> t
(** [lambda] (default 1e-2) is the ridge regularizer; [dim] (default
    {!dim}) is the feature-vector width.  The model claims to be
    {!trained} once it has observed 8 measured trials. *)

val copy : t -> t
(** A deep snapshot: later {!observe} calls on either model leave the
    other untouched.  Each island starts a search epoch from a copy of
    the merged model. *)

val add : t -> float array -> float -> unit
(** [add m x latency_s] adds a training sample to the normal equations
    and invalidates the cached weights; it solves nothing and tracks no
    error. *)

val observe : ?predicted_log:float -> t -> float array -> float -> unit
(** {!add}, after tracking the sample's holdout residual: when the
    model is already trained, the absolute log-latency error of a
    prediction made before the sample joined feeds the running error
    mean ({!mean_abs_log_err}) and the [cost_learn.mean_abs_log_err]
    observability gauge.

    [predicted_log] is that prediction when the caller already made
    one — the search passes the one its measurement gate acted on —
    and the residual then costs no solve, so observing a generation's
    measurements leaves a single refit for the next {!predict}.
    Without it the model predicts the sample under its current
    weights, refitting first if an earlier [observe] invalidated them.
    The weights never depend on [predicted_log]. *)

val adopt : t -> from:t -> unit
(** [adopt m ~from] gives [m] the training state of [from] (same
    [lambda] and dimension) and drops [m]'s cached weights.  When
    [from] started as a copy of [m] and has since {!observe}d a
    non-empty sequence of samples, [m] ends bit-identical — normal
    equations, error mean and weight cache — to replaying that
    sequence through {!observe} on [m], without the replay's solve per
    sample. *)

val trained : t -> bool
val sample_count : t -> int

val predict_log : t -> float array -> float
(** Predicted log-latency; [infinity] until trained. *)

val predict : t -> float array -> float
(** Predicted latency in seconds ([exp] of {!predict_log}). *)

val mean_abs_log_err : t -> float option
(** Running mean absolute log-latency prediction error over all
    holdout residuals seen so far ([None] before the first one). *)

val select_count : ratio:float -> int -> int
(** How many of [n] ranked candidates a gate at [ratio] forwards to the
    simulator: [max 1 (ceil (ratio * n))], 0 only when [n = 0]. *)

val rank : t -> float array array -> int list * float array
(** Indices of the given feature vectors in ascending predicted-cost
    order, with the {!predict_log} value of each vector (by index) the
    order was sorted by; stable under ties (and under an untrained
    model, which predicts uniformly), so ranking is deterministic given
    the trial history. *)
