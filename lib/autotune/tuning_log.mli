(** Persistent tuning records, in the spirit of TVM's tuning logs: the
    search history is written to a plain-text file (one record per
    measured trial) that can be reloaded to recover the best schedule
    without re-running the search. *)

type entry = {
  trial : int;  (** trial index within the run (island-local). *)
  island : int;
      (** island that proposed the trial ([island=] key; 0 — and not
          serialized — for single-island and pre-island logs). *)
  params : Sketch.params;  (** the candidate. *)
  latency_s : float;
      (** measured (noisy) latency, seconds — or the model's predicted
          latency when [measured = false]. *)
  measured : bool;
      (** whether the simulator ran for this trial; [true] for every
          line of a pre-gating log (the [measured=] key defaults on). *)
  predicted_s : float option;
      (** the learned model's prediction at ranking time
          ([predicted_cost=] key), when one was made. *)
}
(** One recorded trial, as serialized to a log line. *)

type header = {
  op_name : string;  (** operation the log was recorded for. *)
  duration_s : float option;
      (** wall-clock duration of the tuning run, when the log was
          written by a version that records it — lets reports derive
          trials/sec for replayed logs. *)
  islands : int;
      (** island count of the run ([islands=] header key; 1 — and not
          serialized — for single-island and pre-island logs). *)
}
(** Parsed log header (the leading [# imtp-tuning-log ...] line). *)

val params_to_string : Sketch.params -> string
(** Compact one-line form, [k=v] pairs. *)

val params_of_string : string -> (Sketch.params, string) Result.t
(** Inverse of {!params_to_string}; unknown keys are errors. *)

val entry_to_string : entry -> string
(** One log line: [trial=N latency=L] followed by the parameters, then
    the gating fields ([measured=0|1] and, when present,
    [predicted_cost=P]) and, for sharded runs, [island=I] — all
    trailing so older readers still parse. *)

val add_entry : Buffer.t -> entry -> unit
(** Append {!entry_to_string}'s line to a buffer, without a newline. *)

val of_record : Search.record -> entry
(** The log entry of one search-history record. *)

val entry_of_string : string -> (entry, string) Result.t
(** Inverse of {!entry_to_string}; malformed lines are [Error]. *)

val save : string -> op_name:string -> Search.outcome -> unit
(** Write a log file: a header naming the operation and recording the
    run's wall-clock duration ({!Search.outcome.elapsed_s}), then one
    line per measured trial. *)

val load : string -> (header * entry list, string) Result.t
(** Returns the parsed header and the entries, preserving order.  I/O
    or parse failures are [Error]; this function never raises.  Log
    files written before [duration_s] existed load with
    [header.duration_s = None]. *)

val best : entry list -> entry option
(** Lowest-latency {e measured} entry — predicted-cost lines in a gated
    log never win ([None] if nothing was measured). *)
