(* Tests for the bignum substrate: Bignat / Bigint / Bigq / Fixed.
   Property tests compare against native-int arithmetic in the overlap
   range and check algebraic laws beyond it. *)

open Bignum

let nat = Alcotest.testable (fun fmt n -> Bignat.pp fmt n) Bignat.equal

let test_basics () =
  Alcotest.(check string) "zero" "0" (Bignat.to_string Bignat.zero);
  Alcotest.(check nat) "of_int/to_string roundtrip" (Bignat.of_string "123456") (Bignat.of_int 123456);
  Alcotest.(check (option int)) "to_int small" (Some 42) (Bignat.to_int_opt (Bignat.of_int 42));
  Alcotest.(check (option int))
    "to_int max_int" (Some max_int)
    (Bignat.to_int_opt (Bignat.of_int max_int));
  Alcotest.(check (option int))
    "to_int overflow" None
    (Bignat.to_int_opt (Bignat.pow Bignat.two 70));
  Alcotest.(check string)
    "2^128"
    "340282366920938463463374607431768211456"
    (Bignat.to_string (Bignat.pow Bignat.two 128));
  Alcotest.(check nat)
    "underscored literals" (Bignat.of_int 1_000_000)
    (Bignat.of_string "1_000_000")

let test_mul_karatsuba () =
  (* force the Karatsuba path with ~40-limb operands *)
  let a = Bignat.pow (Bignat.of_int 1234567891) 40 in
  let b = Bignat.pow (Bignat.of_int 987654321) 41 in
  (* (a*b) / b = a and (a*b) mod b = 0 *)
  let p = Bignat.mul a b in
  let q, r = Bignat.divmod p b in
  Alcotest.(check nat) "div undoes mul" a q;
  Alcotest.(check bool) "no remainder" true (Bignat.is_zero r);
  (* commutativity *)
  Alcotest.(check nat) "commutative" p (Bignat.mul b a)

let test_divmod_knuth () =
  (* exercise the add-back path region with structured operands *)
  let base31 = Bignat.shift_left Bignat.one 31 in
  let a = Bignat.sub (Bignat.pow base31 7) Bignat.one in
  let b = Bignat.sub (Bignat.pow base31 3) Bignat.one in
  let q, r = Bignat.divmod a b in
  Alcotest.(check nat) "recompose" a (Bignat.add (Bignat.mul q b) r);
  Alcotest.(check bool) "r < b" true (Bignat.compare r b < 0)

let test_shifts () =
  let v = Bignat.of_string "123456789123456789123456789" in
  Alcotest.(check nat) "shift roundtrip" v (Bignat.shift_right (Bignat.shift_left v 77) 77);
  Alcotest.(check nat) "shift_left = mul 2^k"
    (Bignat.mul v (Bignat.pow Bignat.two 33))
    (Bignat.shift_left v 33);
  Alcotest.(check int) "num_bits 2^100" 101 (Bignat.num_bits (Bignat.pow Bignat.two 100));
  Alcotest.(check bool) "testbit" true (Bignat.testbit (Bignat.pow Bignat.two 100) 100);
  Alcotest.(check bool) "testbit off" false (Bignat.testbit (Bignat.pow Bignat.two 100) 99)

let test_sqrt_log2 () =
  let v = Bignat.of_string "99999999999999999999999999999999" in
  let s = Bignat.sqrt v in
  Alcotest.(check bool) "s^2 <= v" true (Bignat.compare (Bignat.mul s s) v <= 0);
  let s1 = Bignat.succ s in
  Alcotest.(check bool) "(s+1)^2 > v" true (Bignat.compare (Bignat.mul s1 s1) v > 0);
  Alcotest.(check (float 1e-9)) "log2 of 2^500" 500.0 (Bignat.log2 (Bignat.pow Bignat.two 500))

let qcheck_int_pair = QCheck2.Gen.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))

let prop_add_matches_native =
  QCheck2.Test.make ~name:"bignat add matches native" ~count:500 qcheck_int_pair (fun (a, b) ->
      Bignat.to_int_opt (Bignat.add (Bignat.of_int a) (Bignat.of_int b)) = Some (a + b))

let prop_mul_matches_native =
  QCheck2.Test.make ~name:"bignat mul matches native" ~count:500
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) -> Bignat.to_int_opt (Bignat.mul (Bignat.of_int a) (Bignat.of_int b)) = Some (a * b))

let prop_divmod_matches_native =
  QCheck2.Test.make ~name:"bignat divmod matches native" ~count:500
    QCheck2.Gen.(pair (int_bound 1_000_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let q, r = Bignat.divmod (Bignat.of_int a) (Bignat.of_int b) in
      Bignat.to_int_opt q = Some (a / b) && Bignat.to_int_opt r = Some (a mod b))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"bignat decimal roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (int_bound 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let v = Bignat.of_string s in
      (* canonical form drops leading zeros *)
      Bignat.equal v (Bignat.of_string (Bignat.to_string v)))

let prop_divmod_recompose =
  QCheck2.Test.make ~name:"bignat a = q*b + r with big operands" ~count:100
    QCheck2.Gen.(pair (pair nat nat) (pair nat nat))
    (fun ((a1, a2), (b1, b2)) ->
      let a = Bignat.add (Bignat.mul (Bignat.of_int (a1 + 1)) (Bignat.pow Bignat.two 90)) (Bignat.of_int a2) in
      let b = Bignat.add (Bignat.mul (Bignat.of_int (b1 + 1)) (Bignat.pow Bignat.two 40)) (Bignat.of_int (b2 + 1)) in
      let q, r = Bignat.divmod a b in
      Bignat.equal a (Bignat.add (Bignat.mul q b) r) && Bignat.compare r b < 0)

let prop_gcd =
  QCheck2.Test.make ~name:"gcd divides both and matches native" ~count:300
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let rec g a b = if b = 0 then a else g b (a mod b) in
      Bignat.to_int_opt (Bignat.gcd (Bignat.of_int a) (Bignat.of_int b)) = Some (g a b))

(* -------------------- Bigint -------------------- *)

let bigint = Alcotest.testable (fun fmt n -> Bigint.pp fmt n) Bigint.equal

let test_bigint_signs () =
  let a = Bigint.of_int (-17) and b = Bigint.of_int 5 in
  let q, r = Bigint.divmod a b in
  (* Euclidean: -17 = -4 * 5 + 3 *)
  Alcotest.(check bigint) "euclidean quotient" (Bigint.of_int (-4)) q;
  Alcotest.(check bigint) "euclidean remainder" (Bigint.of_int 3) r;
  Alcotest.(check bigint) "neg pow odd" (Bigint.of_int (-8)) (Bigint.pow (Bigint.of_int (-2)) 3);
  Alcotest.(check bigint) "neg pow even" (Bigint.of_int 16) (Bigint.pow (Bigint.of_int (-2)) 4);
  Alcotest.(check string) "to_string" "-17" (Bigint.to_string a);
  Alcotest.(check bigint) "of_string neg" a (Bigint.of_string "-17")

let prop_bigint_ring =
  QCheck2.Test.make ~name:"bigint ring laws vs native" ~count:500
    QCheck2.Gen.(triple (int_range (-10000) 10000) (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b, c) ->
      let ( + ), ( * ) = (Bigint.add, Bigint.mul) in
      let of_i = Bigint.of_int in
      Bigint.to_int_opt ((of_i a + of_i b) * of_i c) = Some (Stdlib.( * ) (Stdlib.( + ) a b) c))

let prop_bigint_divmod =
  QCheck2.Test.make ~name:"bigint euclidean divmod" ~count:500
    QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-500) 500))
    (fun (a, b) ->
      QCheck2.assume (b <> 0);
      let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
      let qv = Option.get (Bigint.to_int_opt q) and rv = Option.get (Bigint.to_int_opt r) in
      a = (qv * b) + rv && rv >= 0 && rv < abs b)

(* -------------------- Bigq -------------------- *)

let bigq = Alcotest.testable (fun fmt q -> Bigq.pp fmt q) Bigq.equal

let test_bigq_basics () =
  Alcotest.(check bigq) "1/3 + 1/6 = 1/2" (Bigq.of_ints 1 2) (Bigq.add (Bigq.of_ints 1 3) (Bigq.of_ints 1 6));
  Alcotest.(check bigq) "normalization" (Bigq.of_ints 2 3) (Bigq.of_ints 14 21);
  Alcotest.(check bigq) "negative denominator" (Bigq.of_ints (-2) 3) (Bigq.of_ints 2 (-3));
  Alcotest.(check bigq) "string roundtrip" (Bigq.of_ints (-5) 7) (Bigq.of_string "-5/7");
  Alcotest.(check (float 1e-9)) "to_float" 0.4 (Bigq.to_float (Bigq.of_ints 2 5));
  Alcotest.(check (float 1e-9)) "log2 1/1024" (-10.0) (Bigq.log2 (Bigq.of_ints 1 1024));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Bigq.of_ints 1 0))

let prop_bigq_field =
  QCheck2.Test.make ~name:"bigq field laws" ~count:300
    QCheck2.Gen.(
      triple
        (pair (int_range (-50) 50) (int_range 1 50))
        (pair (int_range (-50) 50) (int_range 1 50))
        (pair (int_range (-50) 50) (int_range 1 50)))
    (fun ((a, b), (c, d), (e, f)) ->
      let x = Bigq.of_ints a b and y = Bigq.of_ints c d and z = Bigq.of_ints e f in
      Bigq.equal (Bigq.mul x (Bigq.add y z)) (Bigq.add (Bigq.mul x y) (Bigq.mul x z))
      && Bigq.equal (Bigq.sub (Bigq.add x y) y) x
      && (Bigq.is_zero x || Bigq.equal (Bigq.mul x (Bigq.inv x)) Bigq.one))

let prop_bigq_pow =
  QCheck2.Test.make ~name:"bigq pow matches repeated mul" ~count:100
    QCheck2.Gen.(pair (pair (int_range (-9) 9) (int_range 1 9)) (int_range 0 8))
    (fun ((a, b), e) ->
      QCheck2.assume (a <> 0);
      let x = Bigq.of_ints a b in
      let rec naive acc k = if k = 0 then acc else naive (Bigq.mul acc x) (k - 1) in
      Bigq.equal (Bigq.pow x e) (naive Bigq.one e)
      && Bigq.equal (Bigq.pow x (-e)) (Bigq.inv (naive Bigq.one e)))

(* Bigq.to_float once divided two separately rounded floats, so a
   moderate value with a numerator and denominator beyond the float
   range came out as inf /. inf = nan. *)
let test_bigq_to_float_huge_parts () =
  let q = Bigq.div (Bigq.pow (Bigq.of_int 3) 700) (Bigq.pow (Bigq.of_int 2) 1100) in
  let f = Bigq.to_float q in
  Alcotest.(check bool) "finite" true (Float.is_finite f);
  Alcotest.(check (float 1e-9)) "matches log2" (Bigq.log2 q) (Float.log2 f);
  Alcotest.(check (float 1e-9)) "neg" (-.f) (Bigq.to_float (Bigq.neg q));
  Alcotest.(check (float 0.)) "out of range above" Float.infinity
    (Bigq.to_float (Bigq.pow (Bigq.of_int 2) 1100));
  Alcotest.(check (float 0.)) "out of range below" 0.0
    (Bigq.to_float (Bigq.pow (Bigq.of_int 2) (-1100)))

(* The exact rational a float stands for. *)
let bigq_of_float x =
  let m, e = Float.frexp x in
  Bigq.mul (Bigq.of_int (int_of_float (Float.ldexp m 53))) (Bigq.pow (Bigq.of_int 2) (e - 53))

(* Reference arithmetic: textbook cross products, reduced once by
   [Bigq.make]. *)
module Ref = struct
  let n = Bigq.num
  let d q = Bigint.of_nat (Bigq.den q)
  let ( * ) = Bigint.mul
  let add a b = Bigq.make (Bigint.add (n a * d b) (n b * d a)) (d a * d b)
  let sub a b = Bigq.make (Bigint.sub (n a * d b) (n b * d a)) (d a * d b)
  let mul a b = Bigq.make (n a * n b) (d a * d b)
  let div a b = Bigq.make (n a * d b) (d a * n b)
  let compare a b = Bigint.compare (n a * d b) (n b * d a)
end

(* Magnitudes at the 31/62/93-bit limb boundaries and far beyond. *)
let boundary_nat st =
  let bits =
    [| 1; 2; 7; 30; 31; 32; 61; 62; 63; 92; 93; 94; 150; 1100; 1101 |].(Random.State.int st 15)
  in
  let p = Bignat.shift_left Bignat.one bits in
  match Random.State.int st 4 with
  | 0 -> p
  | 1 -> Bignat.sub p Bignat.one
  | 2 -> Bignat.add p Bignat.one
  | _ ->
      (* a random [bits]-bit value, built 30 bits at a time *)
      let rec go acc k =
        if k <= 0 then acc
        else go (Bignat.add (Bignat.shift_left acc 30) (Bignat.of_int (Random.State.bits st))) (k - 30)
      in
      Bignat.max Bignat.one (Bignat.shift_right (go Bignat.zero bits) (Stdlib.max 0 (((bits + 29) / 30 * 30) - bits)))

let random_bigq st =
  let num () =
    let m = if Random.State.int st 3 = 0 then Bignat.of_int (Random.State.int st 20) else boundary_nat st in
    if Random.State.bool st then Bigint.neg (Bigint.of_nat m) else Bigint.of_nat m
  in
  match Random.State.int st 5 with
  | 0 -> Bigq.zero
  | 1 -> Bigq.of_bigint (num ())
  | _ -> Bigq.make (num ()) (Bigint.of_nat (boundary_nat st))

let test_bigq_fast_paths () =
  let st = Random.State.make [| 20261018 |] in
  let agree what got want =
    if not (Bigq.equal got want && Bigq.to_string got = Bigq.to_string want) then
      Alcotest.failf "%s: got %s, want %s" what (Bigq.to_string got) (Bigq.to_string want)
  in
  for _ = 1 to 3000 do
    let a = random_bigq st in
    let b =
      match Random.State.int st 4 with
      | 0 -> Ref.add a (Bigq.of_int (Random.State.int st 100 - 50)) (* same denominator *)
      | 1 -> Bigq.neg a
      | _ -> random_bigq st
    in
    agree "add" (Bigq.add a b) (Ref.add a b);
    agree "sub" (Bigq.sub a b) (Ref.sub a b);
    agree "mul" (Bigq.mul a b) (Ref.mul a b);
    if not (Bigq.is_zero b) then agree "div" (Bigq.div a b) (Ref.div a b);
    Alcotest.(check int) "compare" (Ref.compare a b) (Int.compare (Bigq.compare a b) 0);
    (* to_float within 4 ulps-of-2^-53 relative whenever it is a normal float *)
    let f = Bigq.to_float a in
    if Float.abs f >= Float.min_float && Float.is_finite f then begin
      let err = Bigq.abs (Bigq.sub (bigq_of_float f) a) in
      if Bigq.compare (Bigq.mul err (Bigq.pow (Bigq.of_int 2) 51)) (Bigq.abs a) > 0 then
        Alcotest.failf "to_float %s = %h" (Bigq.to_string a) f
    end
  done

let test_gcd_native_finish () =
  let rec euclid a b = if Bignat.is_zero b then a else euclid b (Bignat.rem a b) in
  let st = Random.State.make [| 62 |] in
  let around e =
    let p = Bignat.shift_left Bignat.one e in
    [ Bignat.sub p Bignat.one; p; Bignat.add p Bignat.one ]
  in
  let pool =
    List.concat_map around [ 30; 31; 32; 61; 62; 63; 93 ]
    @ List.init 6 (fun _ -> Bignat.of_int (1 + Random.State.int st 1_000_000))
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun g ->
              let a = Bignat.mul a g and b = Bignat.mul b g in
              let want = euclid a b in
              Alcotest.(check nat) "gcd" want (Bignat.gcd a b);
              Alcotest.(check nat) "gcd swapped" want (Bignat.gcd b a))
            [ Bignat.one; Bignat.of_int 6; Bignat.shift_left Bignat.one 31 ])
        pool)
    pool;
  Alcotest.(check nat) "gcd 0 x" (Bignat.of_int 5) (Bignat.gcd Bignat.zero (Bignat.of_int 5));
  Alcotest.(check nat) "gcd x 0" (Bignat.of_int 5) (Bignat.gcd (Bignat.of_int 5) Bignat.zero)

(* -------------------- Fixed -------------------- *)

let test_fixed_exp () =
  (* exp_ceil at q=24 vs float, across the [0,1] range *)
  for num = 0 to 16 do
    let c = Fixed.exp_ceil ~q:24 ~num:(Bignat.of_int num) ~den:(Bignat.of_int 16) in
    let expect = Float.ceil ((2.0 ** 24.0) *. Float.exp (float_of_int num /. 16.0)) in
    Alcotest.(check (float 1.5))
      (Printf.sprintf "exp_ceil %d/16" num)
      expect (Bignat.to_float c)
  done;
  (* exact at 0 *)
  Alcotest.(check nat) "e^0 = 2^q exactly"
    (Bignat.pow Bignat.two 20)
    (Fixed.exp_ceil ~q:20 ~num:Bignat.zero ~den:Bignat.one)

let test_fixed_bounds () =
  let lo, hi = Fixed.exp_bounds ~q:128 ~num:Bignat.one ~den:(Bignat.of_int 3) in
  Alcotest.(check bool) "lo <= hi" true (Bignat.compare lo hi <= 0);
  Alcotest.(check bool) "hi - lo <= 2" true (Bignat.compare (Bignat.sub hi lo) Bignat.two <= 0);
  (* sandwich a float estimate *)
  let est = (2.0 ** 128.0) *. Float.exp (1.0 /. 3.0) in
  Alcotest.(check bool) "brackets e^(1/3)" true
    (Bignat.to_float lo <= est && est <= Bignat.to_float hi +. 4.0)

let test_fixed_monotone () =
  (* exp_ceil is monotone in the argument *)
  let prev = ref Bignat.zero in
  for num = 0 to 32 do
    let c = Fixed.exp_ceil ~q:64 ~num:(Bignat.of_int num) ~den:(Bignat.of_int 32) in
    Alcotest.(check bool) "monotone" true (Bignat.compare c !prev >= 0);
    prev := c
  done

let test_g_q () =
  (* g_q(K/2) with K=8: ceil(2^q e^{1/4}) *)
  let v = Fixed.g_q ~q:30 ~x:(Bignat.of_int 4) ~k:(Bignat.of_int 8) in
  let expect = Float.ceil ((2.0 ** 30.0) *. Float.exp 0.25) in
  Alcotest.(check (float 1.5)) "g_q" expect (Bignat.to_float v);
  Alcotest.check_raises "x > 2K rejected" (Invalid_argument "Fixed.g_q: x must be <= 2K")
    (fun () -> ignore (Fixed.g_q ~q:10 ~x:(Bignat.of_int 17) ~k:(Bignat.of_int 8)))

let prop_mul_assoc_big =
  QCheck2.Test.make ~name:"bignat mul associative on multi-limb operands" ~count:100
    QCheck2.Gen.(triple (int_range 1 1000000) (int_range 1 1000000) (int_range 1 1000000))
    (fun (a, b, c) ->
      (* lift into the 60-120 bit range to span limb boundaries *)
      let big x = Bignat.add (Bignat.mul (Bignat.of_int x) (Bignat.pow Bignat.two 45)) (Bignat.of_int x) in
      let x = big a and y = big b and z = big c in
      Bignat.equal (Bignat.mul (Bignat.mul x y) z) (Bignat.mul x (Bignat.mul y z)))

let prop_sub_opt =
  QCheck2.Test.make ~name:"sub_opt agrees with comparison" ~count:300
    QCheck2.Gen.(pair (int_bound 1000000000) (int_bound 1000000000))
    (fun (a, b) ->
      let x = Bignat.of_int a and y = Bignat.of_int b in
      match Bignat.sub_opt x y with
      | Some d -> a >= b && Bignat.to_int_opt d = Some (a - b)
      | None -> a < b)

let prop_shift_consistency =
  QCheck2.Test.make ~name:"shifts by split amounts compose" ~count:200
    QCheck2.Gen.(triple (int_range 1 1000000000) (int_range 0 80) (int_range 0 80))
    (fun (v, s1, s2) ->
      let x = Bignat.of_int v in
      Bignat.equal
        (Bignat.shift_left (Bignat.shift_left x s1) s2)
        (Bignat.shift_left x (s1 + s2))
      && Bignat.equal (Bignat.shift_right (Bignat.shift_left x s1) s1) x)

let prop_pow_homomorphism =
  QCheck2.Test.make ~name:"pow is a homomorphism: b^(e1+e2) = b^e1 * b^e2" ~count:100
    QCheck2.Gen.(triple (int_range 2 50) (int_range 0 20) (int_range 0 20))
    (fun (b, e1, e2) ->
      let bb = Bignat.of_int b in
      Bignat.equal (Bignat.pow bb (e1 + e2)) (Bignat.mul (Bignat.pow bb e1) (Bignat.pow bb e2)))

let prop_num_bits =
  QCheck2.Test.make ~name:"num_bits matches the 2^k sandwich" ~count:200
    QCheck2.Gen.(int_range 1 max_int)
    (fun v ->
      let x = Bignat.of_int v in
      let k = Bignat.num_bits x in
      Bignat.compare x (Bignat.pow Bignat.two k) < 0
      && Bignat.compare x (Bignat.pow Bignat.two (k - 1)) >= 0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_matches_native;
      prop_mul_matches_native;
      prop_divmod_matches_native;
      prop_string_roundtrip;
      prop_divmod_recompose;
      prop_gcd;
      prop_mul_assoc_big;
      prop_sub_opt;
      prop_shift_consistency;
      prop_pow_homomorphism;
      prop_num_bits;
      prop_bigint_ring;
      prop_bigint_divmod;
      prop_bigq_field;
      prop_bigq_pow;
    ]

let () =
  Alcotest.run "bignum"
    [
      ( "bignat",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "karatsuba mul" `Quick test_mul_karatsuba;
          Alcotest.test_case "knuth divmod" `Quick test_divmod_knuth;
          Alcotest.test_case "shifts and bits" `Quick test_shifts;
          Alcotest.test_case "sqrt and log2" `Quick test_sqrt_log2;
          Alcotest.test_case "gcd vs plain Euclid" `Quick test_gcd_native_finish;
        ] );
      ( "bigint",
        [ Alcotest.test_case "signs and euclidean division" `Quick test_bigint_signs ] );
      ( "bigq",
        [
          Alcotest.test_case "basics" `Quick test_bigq_basics;
          Alcotest.test_case "to_float with huge parts" `Quick test_bigq_to_float_huge_parts;
          Alcotest.test_case "fast paths vs reference" `Quick test_bigq_fast_paths;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "exp_ceil vs float" `Quick test_fixed_exp;
          Alcotest.test_case "exp_bounds tight" `Quick test_fixed_bounds;
          Alcotest.test_case "exp_ceil monotone" `Quick test_fixed_monotone;
          Alcotest.test_case "g_q" `Quick test_g_q;
        ] );
      ("properties", qsuite);
    ]
