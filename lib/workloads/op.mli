(** Operator definitions — the "abstract computational task" side of
    the TensorIR separation (§2.2): an iteration domain over named axes
    and an element expression, with no implementation choices.
    Schedules (how to tile, bind, cache) are applied separately by
    {!Imtp_schedule.Sched}. *)

type axis_kind = Spatial | Reduction

type axis = { aname : string; extent : int; kind : axis_kind }

(** Element expression over the current iteration point.  [Ref t] reads
    input tensor [t] at the point's coordinates (projected onto [t]'s
    axes).  For reduction ops the output accumulates the expression
    with [+] over the reduction axes.  [Acc] is only valid inside an
    {!t.epilogue} and denotes the fully accumulated output value at the
    current output point. *)
type elem =
  | Ref of string
  | Const of Imtp_tensor.Value.t
  | Acc
  | Bin of bin * elem * elem

and bin = Add | Sub | Mul | Div | Min | Max
(** [Div] is floor division on integers (the TIR evaluator's
    [Binop Div] semantics), exact division on floats. *)

type t = {
  opname : string;
  dtype : Imtp_tensor.Dtype.t;
  axes : axis list;  (** canonical loop order, spatial and reduction. *)
  inputs : (string * string list) list;
      (** tensor name and its axes, outermost first. *)
  output : string * string list;  (** name and spatial axes. *)
  body : elem;
  epilogue : elem option;
      (** optional elementwise post-processing applied once per output
          point after the body (and any reduction) completes: the graph
          fusion target for bias add / ReLU / scaling.  May reference
          [Acc] and inputs indexed only by output axes. *)
}

val create :
  name:string ->
  dtype:Imtp_tensor.Dtype.t ->
  axes:axis list ->
  inputs:(string * string list) list ->
  output:string * string list ->
  body:elem ->
  t
(** Creates an op with no epilogue.
    @raise Invalid_argument if an input/output references an unknown
    axis, the output references a reduction axis, a [Ref] names an
    unknown input, axis names collide, or [Acc] appears in the body. *)

val with_epilogue : t -> elem -> t
(** Attach (or replace) an elementwise epilogue.
    @raise Invalid_argument if the epilogue references an unknown input
    or an input indexed by a non-output axis. *)

val axis : t -> string -> axis
val spatial_axes : t -> axis list
val reduction_axes : t -> axis list
val has_reduction : t -> bool
val input_shape : t -> string -> int list
val output_shape : t -> int list
(** Empty list means a scalar output (stored as one element). *)

val output_elems : t -> int
val total_flops : t -> float
(** Multiply-add count of the whole operation (for reporting). *)

val elem_refs : elem -> string list
(** Input names referenced, in reference order, with duplicates. *)

val elem_has_acc : elem -> bool

val body_refs : t -> string list
(** Distinct input names referenced by the body, in first-use order. *)

val epilogue_refs : t -> string list
(** Distinct input names referenced by the epilogue ([[]] if none). *)

val value_bin : bin -> Imtp_tensor.Value.t -> Imtp_tensor.Value.t -> Imtp_tensor.Value.t

val reference : t -> (string * Imtp_tensor.Tensor.t) list -> Imtp_tensor.Tensor.t
(** Direct-loop evaluation of the definition; the golden semantics every
    schedule must preserve.  Each call first stages the definition:
    every input is looked up and its shape checked against the axes
    that index it, then the loop nest runs without lookups.  Each
    element is combined with {!value_bin} and stored with
    {!Imtp_tensor.Tensor.set_flat}, reading an input at its own shape's
    strides, so an input may be larger than its axes' extents.
    @raise Invalid_argument ["Op.reference: missing input n"] for an
    input not supplied, and ["Shape.linearize: out of bounds"] for an
    input of the wrong rank or with a dimension smaller than its axis's
    extent.  Both are raised before the loop that reads the input runs
    (the body's loop nest, then the epilogue's), in the order a
    point-by-point walk meets them: right operands first.
    @raise Division_by_zero on an integer division by zero. *)

val pp : Format.formatter -> t -> unit
val pp_elem : Format.formatter -> elem -> unit
