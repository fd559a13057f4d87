(** TIR statements — the loop-based IR that schedule primitives lower
    to (§2.2, §5.2.2).  One statement language serves host and kernel
    programs; kernel-only nodes ([Dma], [Barrier], bound loops) never
    appear in host code and vice versa ([Xfer], [Launch], host-parallel
    loops). *)

type binding =
  | Block_x
  | Block_y
  | Block_z  (** inter-DPU parallelism: loop iterations mapped to DPUs. *)
  | Thread_x  (** intra-DPU parallelism: iterations mapped to tasklets. *)

type loop_kind =
  | Serial
  | Unrolled  (** fully unrolled at codegen; costs no loop overhead but
                  occupies IRAM proportionally to its extent. *)
  | Host_parallel of int  (** host-side OpenMP-style loop on N threads. *)
  | Bound of binding

type dma_dir = Mram_to_wram | Wram_to_mram
type xfer_dir = To_dpu | From_dpu

type xfer_mode =
  | Copy  (** one [dpu_copy_to/from] runtime call per DPU. *)
  | Push  (** bank-parallel [dpu_prepare_xfer]+[dpu_push_xfer]. *)
  | Broadcast_x  (** [dpu_broadcast_to]: same bytes to every DPU. *)

type t =
  | Seq of t list
  | For of { var : Var.t; extent : Expr.t; kind : loop_kind; body : t }
  | If of { cond : Expr.t; then_ : t; else_ : t option }
  | Store of { buf : string; index : Expr.t; value : Expr.t }
  | Alloc of { buffer : Buffer.t; body : t }
      (** scoped WRAM (kernel) or scratch (host) allocation. *)
  | Dma of {
      dir : dma_dir;
      wram : string;
      wram_off : Expr.t;
      mram : string;
      mram_off : Expr.t;
      elems : Expr.t;  (** transfer length; a constant enables the
                           cheap static-size DMA initiation. *)
    }
  | Xfer of {
      dir : xfer_dir;
      mode : xfer_mode;
      host : string;
      host_off : Expr.t;
      dpu : Expr.t;  (** target DPU id (ignored for [Broadcast_x]). *)
      mram : string;
      mram_off : Expr.t;
      elems : Expr.t;
      group_dpus : int;
    }
  | Launch of string  (** kernel launch by name. *)
  | Barrier  (** tasklet barrier inside a kernel. *)
  | Nop

val seq : t list -> t
(** Flattens nested [Seq]s and drops [Nop]s. *)

val for_ : Var.t -> Expr.t -> ?kind:loop_kind -> t -> t
val if_ : Expr.t -> t -> t
val store : string -> Expr.t -> Expr.t -> t

val rewrite_bottom_up : (t -> t) -> t -> t
(** Rebuild the tree, applying [f] to every node after its children
    have been rewritten.  Nodes whose children [f] left physically
    unchanged are reused, so when [f] returns every node it is given,
    the result is the argument itself ([==]). *)

val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Apply [f] to every expression embedded in the statement tree
    (conditions, extents, indices, values, transfer fields). *)

val iter : (t -> unit) -> t -> unit
val exists : (t -> bool) -> t -> bool
val free_vars : t -> Var.Set.t
(** Variables read anywhere in the tree minus those bound by loops. *)

val binding_to_string : binding -> string
val loop_extents : t -> (Var.t * Expr.t * loop_kind) list
(** Pre-order list of all loops. *)
