(** Closure-compiled executor for lowered programs.

    {!Eval} is a tree-walking interpreter: it re-resolves every buffer
    name through hash tables and association lists, re-dispatches on
    {!Expr.t} constructors for every element, and boxes every value.
    This module compiles a {!Program.t} once into nested OCaml closures
    over typed storage — every buffer reference resolved to a slot
    holding the buffer's raw [int array] or [float array], [Var.Map]
    environments replaced by a pre-sized mutable [int array] frame
    indexed by compile-time slots, and int/float expression trees
    specialized into unboxed closures — and then runs the result.
    Storage per run: the host buffers (inputs the program never writes
    are read in place), one poisoned arena of [ndpus * elems] elements
    per MRAM buffer, and one array per WRAM [Alloc] site, zero-filled on
    entry.  A staged program keeps its arenas and WRAM arrays for its
    next run.  Loops whose body is straight-line stores over affine
    indices, with nothing that can raise, check their bounds once at
    entry instead of at every access.

    It runs wherever a program is executed rather than costed: forward
    passes through compiled graphs ([Graph.Compiled.run]), [Engine.execute]
    (the CLI's [run], [Imtp.execute], the serving daemon's runs), the
    benchmark suite's output validation and the fuzz oracle.  Search
    trials never execute: they are costed analytically by {!Cost}
    through [Engine.estimate].

    {b Determinism contract}: for any program and inputs, the compiled
    executor is bit-compatible with {!Eval} — identical output tensors,
    identical {!Eval.counters}, and identical {!Eval.Error} exceptions
    (same message, raised at the same execution point, with the same
    counter side effects already applied).  The differential fuzzer
    checks this contract on every case when the compiled backend is
    active.

    The backend is selected by the [IMTP_EXEC] environment variable:
    unset or any value other than ["interp"] selects the compiled
    executor; [IMTP_EXEC=interp] is the escape hatch that routes
    {!run}/{!run_counted} through the interpreter unchanged. *)

type backend = Interp | Compiled

val backend : unit -> backend
(** The backend selected by [IMTP_EXEC] (default [Compiled]). *)

val backend_name : unit -> string
(** ["interp"] or ["compiled"], for observability attributes. *)

type compiled
(** A program staged into closures, reusable across runs ({!compile}
    once, {!run_compiled} many times).  Each run starts from the state
    a fresh program would: arenas re-poisoned, WRAM zero-filled on
    entry.  Runs may overlap across domains; a run that finds the kept
    storage in use by another allocates its own. *)

val compile : Program.t -> compiled
(** Stage [p] into closures.  Validation happens here (once) rather
    than per run.
    @raise Eval.Error when the program is invalid, with the same
    message {!Eval.run} would raise. *)

val run_compiled :
  compiled ->
  inputs:(string * Imtp_tensor.Tensor.t) list ->
  (string * Imtp_tensor.Tensor.t) list * Eval.counters
(** Execute a staged program; same contract as {!Eval.run_counted},
    except that an input the program never writes (no [Store], no
    DPU-to-host [Xfer] and no [Dma] names it) comes back as the caller's
    tensor itself rather than a copy — equal by value, as the contract
    requires.  If an input tensor's dtype differs from its buffer
    declaration the run transparently falls back to the interpreter (the
    compiled closures specialize loads on the declared dtype). *)

val run_counted :
  Program.t ->
  inputs:(string * Imtp_tensor.Tensor.t) list ->
  (string * Imtp_tensor.Tensor.t) list * Eval.counters
(** {!Eval.run_counted}-compatible entry point dispatching on
    {!backend}: compiled by default, the interpreter under
    [IMTP_EXEC=interp]. *)

val run :
  Program.t ->
  inputs:(string * Imtp_tensor.Tensor.t) list ->
  (string * Imtp_tensor.Tensor.t) list
(** {!Eval.run}-compatible entry point dispatching on {!backend}. *)
