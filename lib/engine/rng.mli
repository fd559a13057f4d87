(** Seeded pseudo-random source for the autotuner.  A thin wrapper over
    [Random.State] so every search run is reproducible from its seed. *)

type t
(** A mutable random source; draws advance its state. *)

val create : seed:int -> t
(** A fresh source — equal seeds give equal draw sequences. *)

val int : t -> int -> int
(** Uniform in [0, bound). *)

val pick : t -> 'a list -> 'a
(** Uniform choice.  @raise Invalid_argument on the empty list. *)

val pick_array : t -> 'a array -> 'a
(** [pick_array t a] makes the draw [pick t (Array.to_list a)] makes
    and returns the same element, without walking a list.
    @raise Invalid_argument on the empty array. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bool : t -> bool
(** Fair coin flip. *)

val split : t -> t
(** Derive an independent child source. *)

val copy : t -> t
(** A snapshot of the source's exact state: the copy and the original
    produce the same draw sequence from this point on, independently. *)

val bits : t -> int
(** Draw 30 uniformly random bits, advancing the state — the seed
    material for {!stream}. *)

val stream : base:int -> index:int -> t
(** The [index]-th substream of a base seed: a deterministic function
    of [(base, index)] alone, independent of how many other streams
    were derived.  {!Engine.batch} draws one {!bits} value per batch
    and gives candidate [i] the stream [~base ~index:i], so
    per-candidate measurement noise is identical whether the batch runs
    on one domain or many. *)
