(** Arbitrary-precision rationals.

    Always normalized: denominator positive, gcd(|num|, den) = 1, and
    zero is 0/1. Used by the exact [QO_N] cost model ({!Qo.Exact_cost})
    to cross-validate the log-domain model on small instances, since
    selectivities are reciprocals [1/a].

    {b Cost.} Because the canonical form is unique, the arithmetic is
    free to pick the cheapest exact method (Knuth, TAOCP vol 2, 4.5.1):
    - [mul] cancels [gcd(|a.n|, b.d)] and [gcd(|b.n|, a.d)] before
      multiplying, so both gcds run on operand-sized numbers and the
      product needs no reduction; integer operands take no gcd;
    - [add] (Henrici) computes [d1 = gcd(a.d, b.d)]; coprime
      denominators ([d1 = 1], the common case) need no gcd of the
      sum, otherwise only [gcd(sum, d1)]; a zero operand or two
      integers take no gcd;
    - [compare] decides from the signs, then from the numerators
      alone when the denominators are equal, and only otherwise
      cross-multiplies;
    - {!Bignat.gcd} finishes in native ints once both operands fit
      62 bits. *)

type t

val zero : t
val one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den]. @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den]. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bignat.t

val of_string : string -> t
(** Accepts ["a"], ["a/b"], and ["-a/b"]. *)

val to_string : t -> string
val to_float : t -> float
(** Nearest-ish float: relative error below [4 * 2^-53] whenever the
    result is a normal float, even when numerator and denominator each
    exceed the float range. [infinity] / [0.] (or a subnormal) only
    when the value itself is out of range. *)

val log2 : t -> float
(** Base-2 log of a positive rational; [nan] for negatives,
    [neg_infinity] for zero. Exact to float precision even when the
    value itself over/under-flows floats. *)

val is_zero : t -> bool
val sign : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> int -> t
(** Negative exponents allowed (inverts). *)

val pp : Format.formatter -> t -> unit
