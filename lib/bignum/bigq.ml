(* Normalized rationals: num/den with den > 0 and gcd(|num|,den)=1.

   The canonical form is unique, so every exact method of computing a
   result yields the same value and the same bytes; [add] and [mul]
   below only pick cheaper ones, with gcds on the operands instead of
   one on the full product, and none where coprimality is already
   known. *)

type t = { n : Bigint.t; d : Bignat.t (* > 0 *) }

let zero = { n = Bigint.zero; d = Bignat.one }
let one = { n = Bigint.one; d = Bignat.one }

let is_one g = Bignat.equal g Bignat.one

let normalize n d =
  if Bignat.is_zero d then raise Division_by_zero
  else if Bigint.is_zero n then zero
  else begin
    let mag = Bigint.magnitude n in
    let g = Bignat.gcd mag d in
    if is_one g then { n; d }
    else { n = Bigint.make (Bigint.sign n) (Bignat.div mag g); d = Bignat.div d g }
  end

let make num den =
  match Bigint.sign den with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> normalize num (Option.get (Bigint.to_nat_opt den))
  | _ -> normalize (Bigint.neg num) (Option.get (Bigint.to_nat_opt (Bigint.abs den)))

let of_int i = { n = Bigint.of_int i; d = Bignat.one }
let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)
let of_bigint n = { n; d = Bignat.one }
let num t = t.n
let den t = t.d
let is_zero t = Bigint.is_zero t.n
let sign t = Bigint.sign t.n
let neg t = { t with n = Bigint.neg t.n }
let abs t = { t with n = Bigint.abs t.n }

let inv t =
  match Bigint.sign t.n with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> { n = Bigint.of_nat t.d; d = Option.get (Bigint.to_nat_opt t.n) }
  | _ -> { n = Bigint.neg (Bigint.of_nat t.d); d = Option.get (Bigint.to_nat_opt (Bigint.abs t.n)) }

let is_int t = is_one t.d

(* [x / g] for a [g] known to divide [x], skipped when [g = 1] *)
let div_exact x g = if is_one g then x else Bignat.div x g

(* Henrici's addition (Knuth, TAOCP vol 2, 4.5.1): with
   [d1 = gcd(a.d, b.d)] only [d1] can share a factor with the cross
   sum, so coprime denominators need no gcd of the sum at all. *)
let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if is_int a && is_int b then { n = Bigint.add a.n b.n; d = Bignat.one }
  else begin
    let d1 = Bignat.gcd a.d b.d in
    let ad = div_exact a.d d1 and bd = div_exact b.d d1 in
    let t = Bigint.add (Bigint.mul a.n (Bigint.of_nat bd)) (Bigint.mul b.n (Bigint.of_nat ad)) in
    if Bigint.is_zero t then zero
    else if is_one d1 then { n = t; d = Bignat.mul a.d b.d }
    else begin
      let tm = Bigint.magnitude t in
      let d2 = Bignat.gcd tm d1 in
      { n = Bigint.make (Bigint.sign t) (div_exact tm d2); d = Bignat.mul ad (div_exact b.d d2) }
    end
  end

let sub a b = add a (neg b)

(* Cross-cancellation (Knuth, TAOCP vol 2, 4.5.1): both operands are
   reduced, so after dividing out [gcd(|a.n|, b.d)] and
   [gcd(|b.n|, a.d)] the product is reduced too — the gcds run on the
   operands, never on the product. *)
let mul a b =
  if is_zero a || is_zero b then zero
  else if is_int a && is_int b then { n = Bigint.mul a.n b.n; d = Bignat.one }
  else begin
    let an = Bigint.magnitude a.n and bn = Bigint.magnitude b.n in
    let g1 = if is_int b then Bignat.one else Bignat.gcd an b.d in
    let g2 = if is_int a then Bignat.one else Bignat.gcd bn a.d in
    {
      n = Bigint.make (sign a * sign b) (Bignat.mul (div_exact an g1) (div_exact bn g2));
      d = Bignat.mul (div_exact a.d g2) (div_exact b.d g1);
    }
  end

let div a b = mul a (inv b)

let pow t e =
  if e >= 0 then { n = Bigint.pow t.n e; d = Bignat.pow t.d e }
  else inv { n = Bigint.pow t.n (-e); d = Bignat.pow t.d (-e) }

let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Stdlib.compare sa sb
  else if sa = 0 then 0
  else if Bignat.equal a.d b.d then Bigint.compare a.n b.n
  else Bigint.compare (Bigint.mul a.n (Bigint.of_nat b.d)) (Bigint.mul b.n (Bigint.of_nat a.d))

let equal a b = Bigint.equal a.n b.n && Bignat.equal a.d b.d
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
(* Both magnitudes are cut to their top 62 bits (exact as native ints),
   divided, and rescaled by the dropped exponent, so a huge numerator
   and denominator no longer overflow to [inf /. inf] on their own.
   Relative error: two truncations (< 2^-61 each), two int-to-float
   roundings and one division (2^-53 each); [ldexp] is exact while the
   result stays a normal float. *)
let to_float t =
  match sign t with
  | 0 -> 0.0
  | sg ->
      let m = Bigint.magnitude t.n in
      let sn = Stdlib.max 0 (Bignat.num_bits m - 62) in
      let sd = Stdlib.max 0 (Bignat.num_bits t.d - 62) in
      let fn = float_of_int (Bignat.to_int_exn (Bignat.shift_right m sn)) in
      let fd = float_of_int (Bignat.to_int_exn (Bignat.shift_right t.d sd)) in
      Float.ldexp (float_of_int sg *. fn /. fd) (sn - sd)

let log2 t =
  match Bigint.sign t.n with
  | 0 -> neg_infinity
  | s when s < 0 -> nan
  | _ ->
      let mag = Option.get (Bigint.to_nat_opt t.n) in
      Bignat.log2 mag -. Bignat.log2 t.d

let to_string t =
  if Bignat.equal t.d Bignat.one then Bigint.to_string t.n
  else Bigint.to_string t.n ^ "/" ^ Bignat.to_string t.d

let of_string s =
  match String.index_opt s '/' with
  | None -> of_bigint (Bigint.of_string s)
  | Some i ->
      let a = String.sub s 0 i and b = String.sub s (i + 1) (String.length s - i - 1) in
      make (Bigint.of_string a) (Bigint.of_string b)

let pp fmt t = Format.pp_print_string fmt (to_string t)
