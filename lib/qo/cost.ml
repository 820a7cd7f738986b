(** The scalar domain of the cost models.

    The [QO_N] cost apparatus ({!Nl}, {!Opt}, {!Ik}) is a functor over
    this signature, instantiated twice:

    - {!Log_cost}: base-2 log-domain floats ({!Logreal.t}) — the only
      representation that survives the reduction instances, whose
      relation sizes have [Theta(n^2 log a)] bits;
    - {!Rat_cost}: exact rationals ({!Bignum.Bigq}) extended with an
      infinity — used on small instances to cross-validate the
      log-domain model (experiment E10).

    Values are non-negative throughout (sizes, selectivities, costs);
    [sub] is only ever applied to [a >= b] (the IK rank computation). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val infinity : t
  (** Absorbing top element: the cost of an infeasible plan. *)

  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  (** [sub a b] requires [a >= b] up to representation tolerance. *)

  val mul : t -> t -> t
  val div : t -> t -> t
  val pow_int : t -> int -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
  val is_finite : t -> bool

  val to_log2 : t -> float
  (** Base-2 log of the value, for reporting and rank comparisons:
      [neg_infinity] for zero, [infinity] for {!infinity}. *)

  val approx : (t -> float) option
  (** A float shadow of the domain for the exact DP kernels' filter
      ({!Opt.Make.argmin}). [Some f] promises: [f 0 = 0.], and for
      every other value [f] returns either a float within relative
      error [4 * 2^-53] of it, or [nan] / [infinity] when it cannot
      (the kernels then fall back to exact comparisons for that
      subset). {!Rat_cost} opts in: its [compare] cross-multiplies
      big integers, which a float pre-pass mostly avoids. {!Log_cost}
      sets [None]: its [compare] already is a float compare, so a
      shadow would only add work and memory. *)

  val pp : Format.formatter -> t -> unit
end
