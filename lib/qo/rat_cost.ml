(** {!Cost.S} over exact rationals with an added infinity. See {!Cost}. *)

open Bignum

type t = Fin of Bigq.t | Inf

let zero = Fin Bigq.zero
let one = Fin Bigq.one
let infinity = Inf
let of_int i = Fin (Bigq.of_int i)
let of_bigq q = Fin q
let of_ints a b = Fin (Bigq.of_ints a b)

let lift2 f a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (f x y)
  | _ -> Inf

let add = lift2 Bigq.add

let sub a b =
  match (a, b) with
  | Fin x, Fin y ->
      let r = Bigq.sub x y in
      if Bigq.sign r < 0 then invalid_arg "Rat_cost.sub: negative result" else Fin r
  | Inf, Fin _ -> Inf
  | _, Inf -> invalid_arg "Rat_cost.sub: infinite subtrahend"

let mul a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (Bigq.mul x y)
  | Inf, Fin x | Fin x, Inf -> if Bigq.is_zero x then Fin Bigq.zero else Inf
  | Inf, Inf -> Inf

let div a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (Bigq.div x y)
  | Inf, Fin _ -> Inf
  | _, Inf -> Fin Bigq.zero

let pow_int a e =
  match a with
  | Fin x -> Fin (Bigq.pow x e)
  | Inf -> if e = 0 then one else Inf

let compare a b =
  match (a, b) with
  | Fin x, Fin y -> Bigq.compare x y
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_finite = function Fin _ -> true | Inf -> false

let to_log2 = function
  | Fin q -> Bigq.log2 q
  | Inf -> Float.infinity

(* [Bigq.to_float] keeps its error bound only while the result is a
   normal float; below that (subnormal or flushed to zero) it answers
   [nan] so the kernels take the exact path. *)
let approx =
  Some
    (function
    | Fin q ->
        let f = Bigq.to_float q in
        if f >= Float.min_float || Bigq.is_zero q then f else Float.nan
    | Inf -> Float.infinity)

let to_bigq_opt = function Fin q -> Some q | Inf -> None

let pp fmt = function
  | Fin q -> Bigq.pp fmt q
  | Inf -> Format.pp_print_string fmt "inf"
