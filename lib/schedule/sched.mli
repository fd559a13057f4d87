(** Schedules: the implementation side of the TensorIR separation.

    A schedule starts as one loop per operator axis and is transformed
    by the primitives of Table 2 — [split], [reorder], [bind],
    [rfactor], [cache_read]/[cache_write] with
    [compute_at]/[reverse_compute_at], [parallel], and [unroll].  IMTP
    repurposes these kernel-oriented primitives for UPMEM (§5.2.1):
    binding loops to [Block_*] expresses host→DPU data distribution,
    [Thread_x] expresses tasklet parallelism, [rfactor] on a DPU-bound
    reduction segment selects hierarchical reduction, and [parallel]
    on post-processing loops multi-threads the host aggregation.

    The schedule records structure only; {!Imtp_lower.Lowering} turns
    it into loop-based TIR. *)

type binding = Block_x | Block_y | Block_z | Thread_x

type loop_annot =
  | Serial
  | Unrolled
  | Host_parallel of int  (** host post-processing loop on N threads. *)
  | Bound of binding

type loop = private {
  lid : int;
  lname : string;
  axis : string;  (** originating operator axis. *)
  extent : int;
  stride : int;  (** multiplier of this segment in the axis index. *)
  mutable annot : loop_annot;
}

type rw = Read | Write

type cache = private {
  tensor : string;
  rw : rw;
  mutable at : loop option;  (** caching location; [None] until placed. *)
}

type t

val create : Imtp_workload.Op.t -> t
(** The root schedule: one [Serial] loop per operator axis, in the
    operator's canonical order. *)

val op : t -> Imtp_workload.Op.t
val order : t -> loop list
(** Current loop order, outermost first. *)

val caches : t -> cache list
val rfactor_loop : t -> loop option
val loops_of_axis : t -> string -> loop list
(** Segments of one axis, outermost (largest stride) first. *)

val covered_extent : t -> string -> int
(** Product of segment extents; ≥ the axis extent, with strict
    inequality meaning the axis is misaligned and needs boundary
    checks. *)

val find_loop : t -> string -> loop
(** Look up a loop by name.  @raise Not_found. *)

(* --- primitives ----------------------------------------------------- *)

val split : t -> loop -> factors:int list -> loop list
(** [split t l ~factors:[f1; ...; fk]] splits [l] into [k+1] loops
    [o; i1; ...; ik] where [ij] has extent [fj] and [o] covers the
    rest (ceiling division, so the split may over-cover a misaligned
    extent).  Returns the new loops, outermost first.
    @raise Invalid_argument on non-positive factors or a stale loop. *)

val reorder : t -> loop list -> unit
(** Rearrange the given loops, which may be any subset of the current
    order, into the listed order at the positions they jointly occupy
    (TVM semantics). *)

val bind : t -> loop -> binding -> unit
(** @raise Invalid_argument if the binding is already used or the loop
    already annotated. *)

val unroll : t -> loop -> unit
val parallel : t -> loop -> threads:int -> unit

val rfactor : t -> loop -> unit
(** Mark a reduction-axis segment for hierarchical reduction: each DPU
    produces a partial result and the host runs the final reduction
    (§5.2.2 "Reduction code generation").  The loop must derive from a
    reduction axis.  @raise Invalid_argument otherwise. *)

val cache_read : t -> string -> cache
(** Declare a WRAM cache for an input tensor.
    @raise Invalid_argument for unknown tensors or duplicates. *)

val cache_write : t -> string -> cache
(** Declare a WRAM cache for the output tensor. *)

val compute_at : t -> cache -> loop -> unit
(** Place a read cache: its DMA loads happen at the top of each
    iteration of [loop]. *)

val reverse_compute_at : t -> cache -> loop -> unit
(** Place a write cache: its write-back happens at the bottom of each
    iteration of [loop]. *)

(* --- queries used by lowering and the verifier ---------------------- *)

val block_loops : t -> loop list
(** DPU-bound loops in order. *)

val thread_loop : t -> loop option
val grid_dpus : t -> int
val tasklets : t -> int
val is_block : loop -> bool

val serial_loops : t -> loop list
(** Loops still carrying the [Serial] annotation, i.e. the candidates
    for [split]/[bind]/[unroll]/[parallel] (used by random schedule
    generation). *)

val unused_bindings : t -> binding list
(** The bindings not yet claimed by any loop, in declaration order. *)

val describe : t -> string
(** Human-readable schedule summary (used for Table 3). *)

val trace : t -> string list
(** The applied primitives in order, printed TVM-script style
    (e.g. [sch.split(i, factors=[16, 4])], [sch.bind(io, "blockIdx.x")],
    [sch.compute_at(cache_A, j1)]) — the artifact Table 2 shows.  The
    trace records exactly the calls made, so replaying it on a fresh
    schedule of the same operator reproduces the schedule. *)
