(** Persistent tuning records, in the spirit of TVM's tuning logs: the
    search history is written to a plain-text file (one record per
    trial) that can be reloaded to recover the best schedule without
    re-running the search.  A tune session logs its records as it makes
    them, and that log is all a killed session needs to resume. *)

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

type header = { op_name : string  (** operation the log was recorded for. *) }
(** Parsed log header (the leading [# imtp-tuning-log ...] line).  Its
    other keys are read by nobody: a session compares its whole header
    line ({!open_session}). *)

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

val load : string -> (header * entry list, string) Result.t
(** Returns the parsed header and the entries, preserving order.  A
    last line without its newline, which is what a kill leaves
    mid-write, is not part of the log, as for {!open_session}.  I/O or
    parse failures are [Error]; this function never raises. *)

val best : entry list -> entry option
(** Lowest-latency {e measured} entry — predicted-cost lines in a gated
    log never win ([None] if nothing was measured). *)

(** {2 Session logs}

    A tune session's durable state is its own tuning log: the search is
    a pure function of its request, so a killed session resumes by
    running the same search again over the same file.  A session log is
    a tuning log ({!load} reads it) whose header line is a pure function
    of the request ({!session_header}), followed by every record
    {!Search.run} hands its [on_boundary] callback, one line each.  The
    re-run checks each record it makes against the logged lines not yet
    matched, and appends only the records past them.  Latencies are
    re-simulated, never read back: the log prints them to 10
    significant digits, which would not give the search back the exact
    floats it compares. *)

val ratio_to_string : float -> string
(** The shortest decimal rendering of a float that reads back as the
    same float ([0.2] is ["0.2"]); only digits, [.], [e] and [-] for a
    ratio in (0, 1]. *)

val session_header :
  op_name:string ->
  sizes:int list ->
  seed:int ->
  trials:int ->
  ?measure_ratio:float ->
  islands:int ->
  unit ->
  string
(** The header line of a session log, without its newline:
    [# imtp-tuning-log op=O sizes=AxB seed=S trials=T]
    [[measure_ratio=R] islands=K], the ratio exact. *)

type session
(** A session log opened for one run. *)

type session_error =
  | Header_mismatch of { path : string; logged : string; expected : string }
      (** the file's header is another request's. *)
  | Line_mismatch of {
      path : string;
      line : int;  (** 1-based line number in the file. *)
      logged : string;
      recorded : string;
    }
      (** the run made a record that differs from the logged one. *)

val session_error_to_string : session_error -> string

val open_session : string -> header:string -> (session, session_error) result
(** Open the session log at a path: a missing file, or one holding not
    even a complete header line, starts a new log (written with the
    first {!append}); an existing header must equal [header].  A last
    line without its newline, which is what a kill leaves mid-write, is
    not part of the log, and the first write drops it.
    @raise Sys_error when the file exists but cannot be read. *)

val append : session -> Search.record list -> (unit, session_error) result
(** Check and log one boundary's records ([Search.run]'s
    [on_boundary]): each record's {!entry_to_string} must equal the
    next logged line not yet matched, else [Line_mismatch] and nothing
    is written; records past the logged lines are appended with one
    write (the header too, on a new log).  There is no fsync: a log
    survives a killed process, not a power cut.
    @raise Sys_error when the file cannot be written. *)

val logged : session -> int
(** Records the file held when it was opened. *)

val verified : session -> int
(** Logged records the run has matched so far. *)

val close_session : session -> unit
(** Close the file.  Never raises. *)
