(** Random valid-by-construction schedule generation.

    A schedule candidate is a replayable list of {!step}s — one per
    {!Imtp_schedule.Sched} primitive application.  Steps name loops by
    their (deterministic) schedule names, so re-applying the list on a
    fresh schedule of the same operator reproduces the schedule
    exactly; a step whose preconditions no longer hold (e.g. after the
    shrinker dropped the split that created its loop) is rejected and
    skipped, keeping replay total and deterministic.

    {!random} biases generation toward the lowerable structure
    ({!Imtp_lower.Lowering}'s constraints): DPU bindings go to each
    axis's outermost segment, the tasklet binding to a small spatial
    segment (reduction segment only for pure reductions), the reorder
    keeps bound loops as an outermost prefix, and cache placements are
    searched among locations whose covered segments telescope.  Unlucky
    draws can still produce unlowerable schedules; callers treat
    [Lower_error] as a rejection and redraw. *)

module S := Imtp_schedule.Sched

type step =
  | Split of string * int list  (** loop name, factors. *)
  | Reorder of string list  (** full loop order, outermost first. *)
  | Bind of string * S.binding
  | Rfactor of string
  | Unroll of string
  | Parallel of string * int  (** host post-processing threads. *)
  | Cache_read of string * string  (** tensor, [compute_at] loop. *)
  | Cache_write of string * string  (** tensor, [reverse_compute_at] loop. *)

val step_to_string : step -> string

val apply : S.t -> step -> bool
(** Apply one step; [false] (and no schedule change) when the step is
    ill-formed for the current schedule state. *)

val replay : Imtp_workload.Op.t -> step list -> S.t * step list
(** Fresh schedule, all steps applied in order; returns the schedule
    and the steps that survived. *)

val random : Imtp_engine.Rng.t -> Imtp_workload.Op.t -> step list
(** A random candidate sequence covering (across draws) every
    primitive: split, reorder, bind (blocks and tasklets), rfactor,
    cache_read/compute_at, cache_write/reverse_compute_at, unroll and
    parallel. *)
