(** The differential-testing oracle.

    A {!case} packages everything needed to deterministically rebuild
    one experiment: a workload, a replayable schedule-step list,
    lowering options, an optional pass configuration beyond the four
    standard ablations, and the input seed.

    {!check} lowers the schedule and, for every pass configuration,
    runs the program on the functional interpreter and compares

    - the output tensor bit-exactly against the operator's reference
      semantics ({!Imtp_workload.Op.reference}), and
    - the interpreter's dynamic DMA and host-transfer counters exactly
      against the analytic enumerations {!Imtp_tir.Cost.dma_counts} and
      {!Imtp_tir.Cost.xfer_counts}.

    When the compiled executor backend is active (the default — see
    {!Imtp_tir.Exec}), every case additionally runs through both the
    compiled executor and the interpreter and demands bit-identical
    outputs, counters and errors, reporting any divergence as
    {!Executor_mismatch}.

    Schedules the lowering rejects are reported as {!Rejected} — they
    are discarded draws, not failures. *)

type case = {
  workload : Gen_workload.t;
  steps : Gen_sched.step list;
  options : Imtp_lower.Lowering.options;
  extra_config : (string * Imtp_passes.Pipeline.config) option;
  input_seed : int;
}

type failure =
  | Output_mismatch of {
      config : string;
      index : int;  (** first diverging flat element. *)
      got : string;
      want : string;
    }
  | Counter_mismatch of {
      config : string;
      field : string;
          (** ["dma_ops"], ["dma_elems"], ["xfer_elems_h2d"] or
              ["xfer_elems_d2h"]. *)
      executed : int;
      analytic : int;
    }
  | Crash of { config : string; message : string }
  | Executor_mismatch of { config : string; detail : string }
      (** The compiled executor ({!Imtp_tir.Exec}) diverged from the
          interpreter on outputs, counters or raised errors.  Checked
          on every case whenever the compiled backend is active. *)

type verdict =
  | Passed of { configs_checked : int }
  | Rejected of string
  | Failed of failure

val configs : case -> (string * Imtp_passes.Pipeline.config) list
(** The four ablations plus the case's extra configuration, if any. *)

val lower : case -> (Imtp_tir.Program.t, string) result
(** The unoptimized lowering of the case's replayed schedule. *)

val check : case -> verdict

val first_diff :
  Imtp_tensor.Tensor.t ->
  Imtp_tensor.Tensor.t ->
  (int * Imtp_tensor.Value.t * Imtp_tensor.Value.t) option
(** The output verdict of {!check}: [None] exactly when
    {!Imtp_tensor.Tensor.same_values} holds (IEEE floats, so [nan]
    differs from itself; an int never equals a float).  Otherwise the
    first flat index whose elements differ by that standard, with both
    elements; past the end of the shorter tensor the missing element
    reads as [Int 0]. *)

val failure_to_string : failure -> string
