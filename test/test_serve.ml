(* Tests for the qopt serve request/response loop: protocol round
   trips, per-request error isolation, admission control, plan caching,
   budget fallback, graceful shutdown, and the socket transport. *)

module O = Qo.Instances.Opt_rat
module CCP = Qo.Instances.Ccp_rat

(* The hand-checked 2-relation instance from test_qo: optimal cost 200,
   sequence [0;1]. *)
let inst2 = "qon 1\nn 2\nsize 0 100\nsize 1 20\nedge 0 1 sel 1/10 wij 15 wji 2\n"

(* Same instance, different surface syntax (reordered size lines,
   comments, blank lines): must parse to the same canonical form and
   therefore hit the cache. *)
let inst2_reordered =
  "qon 1\n# a comment\nn 2\nsize 1 20\n\nsize 0 100\nedge 0 1 sel 1/10 wij 15 wji 2\n"

(* A connected chain on [n] relations: sizes 4, sel 1/2, w at the lower
   bound 2 both ways — valid in every n we use. *)
let chain_inst n =
  let b = Buffer.create 256 in
  Buffer.add_string b "qon 1\n";
  Buffer.add_string b (Printf.sprintf "n %d\n" n);
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "size %d 4\n" i)
  done;
  for i = 0 to n - 2 do
    Buffer.add_string b (Printf.sprintf "edge %d %d sel 1/2 wij 2 wji 2\n" i (i + 1))
  done;
  Buffer.contents b

(* Two relations, no predicate: disconnected, so ccp is infeasible. *)
let disconnected = "qon 1\nn 2\nsize 0 4\nsize 1 8\n"

let request ?(header = "request algo=dp") payload = header ^ "\n" ^ payload ^ "end\n"

(* Split a response stream into blocks (header + body lines), dropping
   the "end" terminators. *)
let blocks text =
  let rec go acc cur = function
    | [] | [ "" ] -> List.rev (match cur with [] -> acc | c -> List.rev c :: acc)
    | "end" :: rest -> go (List.rev cur :: acc) [] rest
    | l :: rest -> go acc (l :: cur) rest
  in
  go [] [] (String.split_on_char '\n' text)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let block_testable = Alcotest.(list string)

(* ---------------- protocol + cache ---------------- *)

let test_ok_and_cache () =
  let input =
    request ~header:"request id=first algo=dp" inst2
    ^ request ~header:"request id=second algo=dp" inst2_reordered
    ^ request ~header:"request id=third algo=greedy" inst2
  in
  let out, st = Serve.serve_string input in
  let p = O.dp (Qo.Io.parse_rat inst2) in
  let dp_line =
    Serve.render_plan ~label:"exact (subset DP)"
      ~log2_cost:(Qo.Rat_cost.to_log2 p.O.cost) ~seq:p.O.seq
  in
  (match blocks out with
  | [ b1; b2; b3 ] ->
      Alcotest.(check block_testable)
        "first: dp miss"
        [
          "response id=first status=ok algo=dp domain=rat cache=miss approximate=false";
          dp_line;
        ]
        b1;
      (* the reordered payload is the same canonical instance: cache
         hit, body byte-identical *)
      Alcotest.(check block_testable)
        "second: dp hit, byte-identical body"
        [
          "response id=second status=ok algo=dp domain=rat cache=hit approximate=false";
          dp_line;
        ]
        b2;
      (match b3 with
      | hdr :: body :: _ ->
          Alcotest.(check bool) "third: greedy miss" true (contains hdr "algo=greedy");
          Alcotest.(check bool) "third: greedy label" true
            (contains body "greedy (min cost)")
      | _ -> Alcotest.fail "third block malformed")
  | bs -> Alcotest.fail (Printf.sprintf "expected 3 response blocks, got %d" (List.length bs)));
  Alcotest.(check int) "requests" 3 st.Serve.requests;
  Alcotest.(check int) "ok" 3 st.Serve.ok;
  Alcotest.(check int) "cache hits" 1 st.Serve.cache_hits;
  Alcotest.(check int) "cache misses" 2 st.Serve.cache_misses

(* The plan line must be byte-identical to what `qopt optimize` prints:
   both go through Serve.render_plan with the same inputs, and the
   rendering is the documented fixed format. *)
let test_render_plan_format () =
  Alcotest.(check string) "format"
    "exact (subset DP)      cost = 2^7.64  seq = [0;1]"
    (Serve.render_plan ~label:"exact (subset DP)"
       ~log2_cost:(Qo.Rat_cost.to_log2 (O.dp (Qo.Io.parse_rat inst2)).O.cost)
       ~seq:[| 0; 1 |]);
  Alcotest.(check string) "infeasible renders as 2^inf"
    "exact CF (connected DP) cost = 2^inf  seq = []"
    (Serve.render_plan ~label:"exact CF (connected DP)" ~log2_cost:Float.infinity
       ~seq:[||])

(* ---------------- error isolation ---------------- *)

let test_error_isolation () =
  let input =
    request ~header:"request id=a algo=quantum" inst2 (* bad algo *)
    ^ "complete garbage line\n" (* not a request at all *)
    ^ request ~header:"request id=b algo=dp" "qon 1\njunk\n" (* payload parse error *)
    ^ request ~header:"request id=c algo=dp budget_ms=x" inst2 (* bad budget *)
    ^ request ~header:"request id=d algo=dp" inst2 (* still served *)
  in
  let out, st = Serve.serve_string input in
  let codes =
    List.filter_map
      (fun b ->
        match b with
        | hdr :: _ when contains hdr "status=error" ->
            Some
              (List.find_map
                 (fun tok ->
                   if String.length tok > 5 && String.sub tok 0 5 = "code=" then
                     Some (String.sub tok 5 (String.length tok - 5))
                   else None)
                 (String.split_on_char ' ' hdr))
        | _ -> None)
      (blocks out)
  in
  Alcotest.(check (list (option string)))
    "error codes in order"
    [ Some "bad-request"; Some "bad-request"; Some "parse"; Some "bad-request" ]
    codes;
  (* the process survived all of it and the last request was answered *)
  Alcotest.(check bool) "last request still served ok" true
    (contains out "response id=d status=ok");
  Alcotest.(check int) "requests" 5 st.Serve.requests;
  Alcotest.(check int) "ok" 1 st.Serve.ok;
  Alcotest.(check int) "errors" 4 st.Serve.errors;
  Alcotest.(check bool) "never interrupted" false st.Serve.interrupted

let test_truncated_payload () =
  let out, st = Serve.serve_string ("request id=t algo=dp\nqon 1\nn 2\n") in
  Alcotest.(check bool) "EOF before end is a bad-request" true
    (contains out "response id=t status=error code=bad-request"
    && contains out "unexpected EOF");
  Alcotest.(check int) "one error" 1 st.Serve.errors

(* ---------------- admission control ---------------- *)

let test_admission () =
  let input =
    request ~header:"request id=big-dp algo=dp" (chain_inst 24)
    ^ request ~header:"request id=big-ccp algo=ccp" (chain_inst 300)
    ^ request ~header:"request id=big-conv algo=conv" (chain_inst 300)
    ^ request ~header:"request id=big-greedy algo=greedy" (chain_inst 24)
    ^ request ~header:"request id=word-ccp algo=ccp" (chain_inst 62)
  in
  let out, st = Serve.serve_string input in
  Alcotest.(check bool) "dp n=24 rejected" true
    (contains out "response id=big-dp status=error code=too-large"
    && contains out "exceeds Opt.max_dp_n (23)");
  Alcotest.(check bool) "ccp n=300 rejected" true
    (contains out "response id=big-ccp status=error code=too-large"
    && contains out "exceeds Ccp.max_ccp_n (256)");
  Alcotest.(check bool) "conv n=300 rejected" true
    (contains out "response id=big-conv status=error code=too-large"
    && contains out "exceeds Conv.max_conv_n (256)");
  Alcotest.(check bool) "greedy n=24 admitted" true
    (contains out "response id=big-greedy status=ok");
  (* Past the old single-word ceiling of 61: now served exactly. *)
  Alcotest.(check bool) "ccp n=62 admitted" true
    (contains out "response id=word-ccp status=ok");
  Alcotest.(check int) "rejected counted separately" 3 st.Serve.rejected;
  Alcotest.(check int) "not counted as plain errors" 0 st.Serve.errors;
  Alcotest.(check int) "admitted requests solved" 2 st.Serve.ok

(* Every served algo must report its {e true} cap — the very constant
   the underlying solver enforces — so admission can never admit an
   instance the solver then rejects, or refuse one it could solve. *)
let test_admission_caps_truthful () =
  let entry name =
    match Solver.find name with
    | Some e -> e
    | None -> Alcotest.failf "algo %s not registered" name
  in
  let check_cap algo name cap =
    let got_name, got_cap = Serve.admission_cap (entry algo) in
    Alcotest.(check string) (name ^ " cap name") name got_name;
    Alcotest.(check int) (name ^ " cap value") cap got_cap
  in
  check_cap "dp" "Opt.max_dp_n" O.max_dp_n;
  check_cap "ccp" "Ccp.max_ccp_n" CCP.max_ccp_n;
  check_cap "conv" "Conv.max_conv_n" Qo.Instances.Conv_rat.max_conv_n;
  check_cap "greedy" "Io.max_parse_n" Qo.Io.max_parse_n;
  check_cap "sa" "Io.max_parse_n" Qo.Io.max_parse_n;
  check_cap "simpli" "Io.max_parse_n" Qo.Io.max_parse_n;
  check_cap "milp" "Milp.max_milp_n" Milp.max_milp_n;
  (* The serve-layer cap for conv matches the solver's own guard: n at
     the cap is admitted, n past it is exactly what Conv.solve refuses. *)
  let _, conv_cap = Serve.admission_cap (entry "conv") in
  Alcotest.(check int) "conv cap = Ccp cap (sparse regime delegates)"
    CCP.max_ccp_n conv_cap;
  (* every registry entry is serveable: its declared cap is positive
     and admission answers for it without any per-algo wiring *)
  List.iter
    (fun (e : Solver.entry) ->
      let got_name, got_cap = Serve.admission_cap e in
      Alcotest.(check string) (e.Solver.name ^ " cap name") e.Solver.cap_name got_name;
      Alcotest.(check bool) (e.Solver.name ^ " cap positive") true (got_cap > 0))
    Solver.all

(* Registry aliases resolve at the parser and canonicalize in the
   response: algo=lattice is served exactly like algo=dp — same plan
   bytes, same cache key (the alias request hits the dp entry), and
   the response header says algo=dp. *)
let test_algo_alias_lattice () =
  let input =
    request ~header:"request id=canon algo=dp" inst2
    ^ request ~header:"request id=alias algo=lattice" inst2
  in
  let out, st = Serve.serve_string input in
  let body hdr_frag =
    match List.find_opt (fun b -> contains (List.hd b) hdr_frag) (blocks out) with
    | Some (_ :: body) -> body
    | _ -> Alcotest.failf "no response %s in %s" hdr_frag out
  in
  Alcotest.(check block_testable) "alias serves the dp plan bytes"
    (body "id=canon") (body "id=alias");
  Alcotest.(check bool) "alias response is canonicalized" true
    (contains out "response id=alias status=ok algo=dp");
  Alcotest.(check int) "alias request hits the dp cache entry" 1 st.Serve.cache_hits

(* The two registry entrants serve without any serve-side wiring:
   milp's plan line is byte-identical to dp's (it is exact), simpli
   answers as a heuristic, and milp on a log-domain instance is a
   structured error, not a dead process. *)
let test_registry_entrants_served () =
  let input =
    request ~header:"request id=m algo=milp" inst2
    ^ request ~header:"request id=d algo=dp" inst2
    ^ request ~header:"request id=s algo=simpli" inst2
    ^ request ~header:"request id=l algo=milp domain=log" inst2
  in
  let out, st = Serve.serve_string input in
  let plan hdr_frag =
    match List.find_opt (fun b -> contains (List.hd b) hdr_frag) (blocks out) with
    | Some [ _; line ] -> line
    | _ -> Alcotest.failf "no single-line response %s in %s" hdr_frag out
  in
  (* the plan label occupies the %-22s field; past it the cost and
     sequence must be byte-identical to dp's (milp is exact) *)
  let past_label l = String.sub l 22 (String.length l - 22) in
  Alcotest.(check bool) "milp ok" true (contains out "response id=m status=ok algo=milp");
  Alcotest.(check string) "milp plan = dp plan modulo the label"
    (past_label (plan "id=d"))
    (past_label (plan "id=m"));
  Alcotest.(check bool) "simpli ok" true
    (contains out "response id=s status=ok algo=simpli");
  Alcotest.(check bool) "milp on log domain is a bad request" true
    (contains out "response id=l status=error code=bad-request");
  Alcotest.(check bool) "with the rat-only message" true
    (contains out "error: algo=milp supports only domain=rat");
  Alcotest.(check int) "three requests served ok" 3 st.Serve.ok

(* Oversized declared n is stopped by the parser's own cap, long before
   Array.make: the serve loop reports it as a parse error and lives. *)
let test_oversized_n_payload () =
  let out, st =
    Serve.serve_string
      (request ~header:"request id=huge algo=greedy" "qon 1\nn 99999999999\n")
  in
  Alcotest.(check bool) "huge n is a parse error" true
    (contains out "response id=huge status=error code=parse"
    && contains out "out of range");
  Alcotest.(check int) "served on" 1 st.Serve.requests

(* ---------------- ccp on a disconnected graph ---------------- *)

let test_ccp_disconnected () =
  let out, st =
    Serve.serve_string (request ~header:"request id=dis algo=ccp" disconnected)
  in
  (match blocks out with
  | [ [ hdr; body ] ] ->
      Alcotest.(check string) "infeasible is still status=ok"
        "response id=dis status=ok algo=ccp domain=rat cache=miss approximate=false" hdr;
      Alcotest.(check string) "plan line is the 2^inf infeasible rendering"
        "exact CF (connected DP) cost = 2^inf  seq = []" body
  | _ -> Alcotest.fail "expected one two-line response block");
  Alcotest.(check int) "ok" 1 st.Serve.ok

(* ---------------- budget fallback ---------------- *)

let test_budget_fallback () =
  let input =
    request ~header:"request id=tight algo=dp budget_ms=0" inst2
    ^ request ~header:"request id=roomy algo=dp budget_ms=10000" inst2
    ^ request ~header:"request id=tight-ccp algo=ccp budget_ms=0" inst2
    ^ request ~header:"request id=cheap algo=greedy budget_ms=0" inst2
  in
  let out, st = Serve.serve_string input in
  Alcotest.(check bool) "zero budget downgrades dp" true
    (contains out "response id=tight status=ok algo=dp domain=rat cache=miss approximate=true");
  Alcotest.(check bool) "generous budget stays exact" true
    (contains out
       "response id=roomy status=ok algo=dp domain=rat cache=miss approximate=false");
  Alcotest.(check bool) "zero budget downgrades ccp" true
    (contains out "response id=tight-ccp status=ok algo=ccp domain=rat cache=miss approximate=true");
  Alcotest.(check bool) "heuristics never fall back" true
    (contains out
       "response id=cheap status=ok algo=greedy domain=rat cache=miss approximate=false");
  Alcotest.(check int) "two fallbacks" 2 st.Serve.fallbacks;
  (* exact and approximate results never share a cache slot: the roomy
     dp run was a miss even though the tight one came first *)
  Alcotest.(check int) "no cross-contamination hits" 0 st.Serve.cache_hits

(* ---------------- cache eviction ---------------- *)

let test_cache_eviction () =
  let config = { Serve.default_config with Serve.cache_capacity = 1 } in
  let a = request ~header:"request algo=dp" inst2 in
  let b = request ~header:"request algo=dp" (chain_inst 3) in
  let _out, st = Serve.serve_string ~config (a ^ b ^ a) in
  Alcotest.(check int) "all misses at capacity 1" 3 st.Serve.cache_misses;
  Alcotest.(check int) "no hits" 0 st.Serve.cache_hits;
  Alcotest.(check int) "two evictions" 2 st.Serve.evictions;
  (* the single slot still serves a repeat *)
  let _out, st1 = Serve.serve_string ~config (a ^ a) in
  Alcotest.(check int) "capacity 1: repeat hits" 1 st1.Serve.cache_hits;
  Alcotest.(check int) "capacity 1: one entry" 1 st1.Serve.cache_entries;
  (* and capacity 0 disables caching without dividing by zero *)
  let config0 = { Serve.default_config with Serve.cache_capacity = 0 } in
  let _out, st0 = Serve.serve_string ~config:config0 (a ^ a) in
  Alcotest.(check int) "capacity 0: no hits" 0 st0.Serve.cache_hits;
  Alcotest.(check int) "capacity 0: two misses" 2 st0.Serve.cache_misses;
  Alcotest.(check int) "capacity 0: no evictions" 0 st0.Serve.evictions;
  Alcotest.(check int) "capacity 0: no entries" 0 st0.Serve.cache_entries

(* The cache= mark of every response, in order. *)
let cache_marks out =
  List.filter_map
    (function
      | h :: _ when contains h "cache=hit" -> Some "hit"
      | h :: _ when contains h "cache=miss" -> Some "miss"
      | _ -> None)
    (blocks out)

(* A hit refreshes recency, so the victim is the true least recently
   used entry, not the oldest insertion. *)
let test_lru_refresh () =
  let config = { Serve.default_config with Serve.cache_capacity = 3 } in
  let r n = request ~header:"request algo=dp" (chain_inst n) in
  let out, st = Serve.serve_string ~config (r 2 ^ r 3 ^ r 4 ^ r 2 ^ r 5 ^ r 2 ^ r 4 ^ r 3) in
  (* r 2 is refreshed before r 5 arrives, so r 3 is evicted *)
  Alcotest.(check (list string)) "marks"
    [ "miss"; "miss"; "miss"; "hit"; "miss"; "hit"; "hit"; "miss" ]
    (cache_marks out);
  Alcotest.(check int) "evictions" 2 st.Serve.evictions

(* Recency is global across cache keys. A request's key ends in the md5
   of its canonical dump. Pick a and c whose digests start with hex
   digits of the same parity and b with the other, so that a cache
   partitioned by that digit into two capacity-1 LRUs would evict a on
   c's arrival. At capacity 2, a b a c a must evict b (the global LRU)
   and the final a must hit. *)
let test_lru_global () =
  let digit payload =
    let d =
      Digest.to_hex (Digest.string ("rat\n" ^ Qo.Io.dump_rat (Qo.Io.parse_rat payload)))
    in
    int_of_string ("0x" ^ String.sub d 0 1)
  in
  let chains = List.init 14 (fun i -> chain_inst (i + 2)) in
  let parity p = digit p mod 2 in
  let same, other = List.partition (fun p -> parity p = parity (List.hd chains)) chains in
  match (same, other) with
  | a :: c :: _, b :: _ ->
      let config = { Serve.default_config with Serve.cache_capacity = 2 } in
      let r = request ~header:"request algo=dp" in
      let out, st = Serve.serve_string ~config (r a ^ r b ^ r a ^ r c ^ r a) in
      Alcotest.(check (list string)) "marks" [ "miss"; "miss"; "hit"; "miss"; "hit" ]
        (cache_marks out);
      Alcotest.(check int) "b evicted" 1 st.Serve.evictions
  | _ -> Alcotest.fail "no instances of both digest parities"

(* ---------------- canonical-form front map ---------------- *)

(* A repeated payload skips the parse through a front map keyed on the
   raw bytes and the domain. These tests pin down that it only
   memoizes: every response is the one a fresh, map-less run gives. *)

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.snapshot ()))

(* (canon hits, canon misses) made by one serve call *)
let canon_counts f =
  let h0 = counter "serve.canon.hits" and m0 = counter "serve.canon.misses" in
  let r = f () in
  (r, (counter "serve.canon.hits" - h0, counter "serve.canon.misses" - m0))

let error_lines out =
  List.filter (fun l -> String.length l > 7 && String.sub l 0 7 = "error: ")
    (String.split_on_char '\n' out)

(* The key includes the domain: the same bytes parse under rat but not
   under log (1/2 is no log-domain scalar), so a key without it would
   serve the log request from the rat entry. *)
let test_front_domain_separation () =
  let payload = chain_inst 4 in
  let (out, st), (hits, misses) =
    canon_counts (fun () ->
        Serve.serve_string
          (request ~header:"request id=r algo=dp domain=rat" payload
          ^ request ~header:"request id=l algo=dp domain=log" payload
          ^ request ~header:"request id=r2 algo=dp domain=rat" payload))
  in
  Alcotest.(check bool) "rat request ok" true (contains out "response id=r status=ok");
  Alcotest.(check bool) "log request of the same bytes is still a parse error" true
    (contains out "response id=l status=error code=parse");
  Alcotest.(check bool) "rat repeat hits the plan cache" true
    (contains out "response id=r2 status=ok algo=dp domain=rat cache=hit");
  Alcotest.(check (pair int int)) "only the rat repeat is a front hit" (1, 2) (hits, misses);
  Alcotest.(check int) "one parse error" 1 st.Serve.errors

(* The budget decision is recomputed per request from the stored n: a
   front hit under a tighter budget still falls back. *)
let test_front_budget_recomputed () =
  let payload = chain_inst 6 in
  let out, _ =
    Serve.serve_string
      (request ~header:"request id=x algo=dp" payload
      ^ request ~header:"request id=y algo=dp budget_ms=0" payload)
  in
  Alcotest.(check bool) "exact first" true
    (contains out "response id=x status=ok algo=dp domain=rat cache=miss approximate=false");
  Alcotest.(check bool) "front hit under budget 0 is approximate" true
    (contains out "response id=y status=ok algo=dp domain=rat cache=miss approximate=true")

(* ccp budgets count connected subsets, so a front hit must parse the
   payload for the estimate. Chain-8 has 36 connected subsets at
   8 x 100 ns each: 0.0288 ms of modelled work, so budget 0.02 falls
   back and 0.04 stays exact. After a warm-up request fills the front
   map, each budgeted request must answer what a fresh session
   answers, up to the cache mark. *)
let test_front_csg_budget () =
  let payload = chain_inst 8 in
  let budgeted b = request ~header:(Printf.sprintf "request id=b algo=ccp budget_ms=%s" b) payload in
  let unmark s =
    String.concat " "
      (List.filter (fun t -> t <> "cache=hit" && t <> "cache=miss") (String.split_on_char ' ' s))
  in
  List.iter
    (fun (b, approximate) ->
      let (warm, _), (hits, _) =
        canon_counts (fun () ->
            Serve.serve_string (request ~header:"request id=w algo=ccp" payload ^ budgeted b))
      in
      let fresh, _ = Serve.serve_string (budgeted b) in
      let last_block out = List.nth (blocks out) (List.length (blocks out) - 1) in
      Alcotest.(check int) (b ^ ": budgeted request is a front hit") 1 hits;
      Alcotest.(check (list string))
        (b ^ ": front hit answers like a fresh session")
        (List.map unmark (last_block fresh))
        (List.map unmark (last_block warm));
      Alcotest.(check bool) (b ^ ": approximate flag") true
        (contains (List.hd (last_block warm)) (Printf.sprintf "approximate=%b" approximate)))
    [ ("0.02", true); ("0.04", false) ]

(* Rejections stay byte-stable: a too-large payload parses, so its
   repeats are front hits answered from the stored n; a parse error is
   never stored, so every repeat re-parses to the same message. *)
let test_front_repeated_errors () =
  let big = request ~header:"request id=big algo=dp" (chain_inst 24) in
  let bad = request ~header:"request id=bad algo=dp" "qon 1\nn 2\nsize 0 x\n" in
  let (out, st), (hits, misses) =
    canon_counts (fun () -> Serve.serve_string (big ^ bad ^ big ^ bad ^ big ^ bad))
  in
  let errs = error_lines out in
  Alcotest.(check int) "six error lines" 6 (List.length errs);
  Alcotest.(check (list string)) "too-large line repeats exactly"
    [ List.nth errs 0; List.nth errs 0 ] [ List.nth errs 2; List.nth errs 4 ];
  Alcotest.(check (list string)) "parse-error line repeats exactly"
    [ List.nth errs 1; List.nth errs 1 ] [ List.nth errs 3; List.nth errs 5 ];
  Alcotest.(check bool) "too-large message" true
    (contains (List.nth errs 0) "exceeds Opt.max_dp_n (23)");
  Alcotest.(check int) "three rejections" 3 st.Serve.rejected;
  Alcotest.(check (pair int int)) "too-large repeats hit, parse errors always miss" (2, 4)
    (hits, misses)

(* Counter semantics: hits + misses = requests that reached the payload
   parse; capacity 0 disables the map with the plan cache; the map is
   an LRU of the plan cache's capacity. *)
let test_front_counters () =
  let r n = request ~header:"request algo=dp" (chain_inst n) in
  let (_, st), (hits, misses) =
    canon_counts (fun () ->
        Serve.serve_string
          (r 3 ^ r 3 ^ "junk\n" ^ "request algo=nope\n" ^ chain_inst 3 ^ "end\n"
          ^ request ~header:"request algo=milp domain=log" (chain_inst 3)
          ^ request ~header:"request algo=dp" ("# variant\n" ^ chain_inst 3)))
  in
  Alcotest.(check int) "six requests" 6 st.Serve.requests;
  Alcotest.(check (pair int int)) "repeat hits; comment variant misses; bad headers never \
                                   reach the parse" (1, 2) (hits, misses);
  let config0 = { Serve.default_config with Serve.cache_capacity = 0 } in
  let _, (hits0, misses0) =
    canon_counts (fun () -> Serve.serve_string ~config:config0 (r 3 ^ r 3 ^ r 3))
  in
  Alcotest.(check (pair int int)) "capacity 0 stores nothing" (0, 3) (hits0, misses0);
  let at cap =
    let config = { Serve.default_config with Serve.cache_capacity = cap } in
    canon_counts (fun () -> Serve.serve_string ~config (r 2 ^ r 3 ^ r 4 ^ r 2))
  in
  let (out2, _), counts2 = at 2 and (out3, _), counts3 = at 3 in
  Alcotest.(check (pair int int)) "cap + 1 distinct payloads evict the first" (0, 4) counts2;
  Alcotest.(check (list string)) "with the plan cache" [ "miss"; "miss"; "miss"; "miss" ]
    (cache_marks out2);
  Alcotest.(check (pair int int)) "at capacity 3 it stays" (1, 3) counts3;
  Alcotest.(check (list string)) "and hits both maps" [ "miss"; "miss"; "miss"; "hit" ]
    (cache_marks out3)

(* ---------------- concurrent pipeline ---------------- *)

(* A mixed stream covering every response path: exact solves, a
   canonical-form cache hit, a junk line, a parse error, an admission
   rejection, a budget fallback, a heuristic solve and an infeasible
   ccp instance. *)
let mixed_stream =
  request ~header:"request id=a algo=dp" inst2
  ^ request ~header:"request id=b algo=dp" inst2_reordered
  ^ "junk line\n"
  ^ request ~header:"request id=c algo=dp" "this is not qon\n"
  ^ request ~header:"request id=d algo=dp" (chain_inst 24)
  ^ request ~header:"request id=e algo=dp budget_ms=0" (chain_inst 6)
  ^ request ~header:"request id=f algo=greedy" inst2
  ^ request ~header:"request id=g algo=ccp" disconnected
  ^ request ~header:"request id=h algo=dp" (chain_inst 6)

(* The tentpole contract: the concurrent pipeline is byte-identical to
   the sequential loop — same responses, same order, same stats — for
   every jobs/batch-size combination. *)
let test_concurrent_byte_identity () =
  let seq_out, seq_st = Serve.serve_string mixed_stream in
  List.iter
    (fun (jobs, batch_size) ->
      let config = { Serve.default_config with Serve.batch_size } in
      let out, st =
        Pool.with_pool ~jobs (fun pool -> Serve.serve_string ~pool ~config mixed_stream)
      in
      let label = Printf.sprintf "jobs=%d batch=%d" jobs batch_size in
      Alcotest.(check string) (label ^ ": bytes identical") seq_out out;
      Alcotest.(check bool) (label ^ ": stats identical") true
        (Serve.stats_key seq_st = Serve.stats_key st))
    [ (2, 1); (2, 3); (4, 1); (4, 3); (4, 64) ]

(* Duplicate solves submitted concurrently coalesce on the claimed
   cache entry; whatever the interleaving, the hit/miss split matches
   the sequential one because cache claims happen in arrival order. *)
let test_concurrent_coalescing () =
  let dup = request ~header:"request algo=dp" (chain_inst 8) in
  let stream = String.concat "" (List.init 12 (fun _ -> dup)) in
  let seq_out, seq_st = Serve.serve_string stream in
  let out, st = Pool.with_pool ~jobs:4 (fun pool -> Serve.serve_string ~pool stream) in
  Alcotest.(check string) "coalesced bytes identical" seq_out out;
  Alcotest.(check int) "one miss" 1 st.Serve.cache_misses;
  Alcotest.(check int) "rest are hits" 11 st.Serve.cache_hits;
  Alcotest.(check bool) "stats identical" true (Serve.stats_key seq_st = Serve.stats_key st)

(* The front map is the reader's alone, so its hit/miss counts follow
   arrival order: the same at jobs 1 and 4, at any batch size. *)
let test_canon_counts_jobs_invariant () =
  let _, base = canon_counts (fun () -> Serve.serve_string mixed_stream) in
  List.iter
    (fun batch_size ->
      let config = { Serve.default_config with Serve.batch_size } in
      let _, counts =
        canon_counts (fun () ->
            Pool.with_pool ~jobs:4 (fun pool -> Serve.serve_string ~pool ~config mixed_stream))
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "canon (hits, misses) at jobs=4 batch=%d" batch_size)
        base counts)
    [ 1; 3 ]

(* At jobs 2 the junk line's batch is answered in full by the reader,
   which commits it itself; behind the slow solve on the worker it
   waits in the reorder buffer, so the bytes are the jobs 1 bytes in
   arrival order. *)
let test_reader_commit_in_order () =
  let stream =
    request ~header:"request id=warm algo=dp" inst2
    ^ request ~header:"request id=slow algo=dp" (chain_inst 12)
    ^ "junk line\n"
    ^ request ~header:"request id=again algo=dp" inst2
  in
  let seq_out, _ = Serve.serve_string stream in
  let out, _ = Pool.with_pool ~jobs:2 (fun pool -> Serve.serve_string ~pool stream) in
  Alcotest.(check string) "bytes identical to jobs 1" seq_out out;
  let id header =
    List.find (String.starts_with ~prefix:"id=") (String.split_on_char ' ' header)
  in
  Alcotest.(check (list string)) "arrival order" [ "id=warm"; "id=slow"; "id=3"; "id=again" ]
    (List.map (fun b -> id (List.hd b)) (blocks out))

(* Satellite: report determinism. Two runs of the same stream differ
   only in wall-clock fields; with those masked, the totals compare
   structurally equal — no ad-hoc float tolerance needed. *)
let test_report_masked_deterministic () =
  let _out1, st1 = Serve.serve_string mixed_stream in
  let _out2, st2 =
    Pool.with_pool ~jobs:2 (fun pool -> Serve.serve_string ~pool mixed_stream)
  in
  let totals st =
    match Obs.Json.member "totals" (Serve.report_json_masked ~jobs:1 st) with
    | Some t -> t
    | None -> Alcotest.fail "report has no totals"
  in
  let t1 = totals st1 and t2 = totals st2 in
  Alcotest.(check bool) "seconds masked to null" true
    (Obs.Json.member "seconds" t1 = Some Obs.Json.Null);
  Alcotest.(check bool) "latency percentiles masked to null" true
    (Obs.Json.member "latency_ms" t1 = Some Obs.Json.Null);
  Alcotest.(check string) "masked totals structurally equal"
    (Obs.Json.to_string t1) (Obs.Json.to_string t2);
  (* the unmasked report still carries real latency percentiles *)
  Alcotest.(check bool) "p99 >= p50 >= 0" true
    (let p50 = Serve.latency_percentile st1 50. and p99 = Serve.latency_percentile st1 99. in
     p99 >= p50 && p50 >= 0.)

(* ---------------- graceful shutdown ---------------- *)

let test_shutdown_mid_stream () =
  (* an io source that delivers one full request and then simulates a
     SIGTERM arriving while waiting for the next line *)
  let lines = ref (String.split_on_char '\n' (request inst2)) in
  let buf = Buffer.create 256 in
  let next_line () =
    match !lines with
    | [] | [ "" ] -> raise Serve.Shutdown
    | l :: rest ->
        lines := rest;
        Some l
  in
  let st =
    Serve.serve_io { Serve.next_line; write = Buffer.add_string buf; flush = Fun.id }
  in
  Alcotest.(check bool) "in-flight request answered" true
    (contains (Buffer.contents buf) "status=ok");
  Alcotest.(check bool) "marked interrupted" true st.Serve.interrupted;
  Alcotest.(check int) "one ok" 1 st.Serve.ok

(* A shutdown signal landing mid-solve ends the session: the request
   being solved is answered "interrupted by shutdown" and nothing after
   it is read. SIGALRM stands in for SIGTERM; a rat-domain dp solve on
   a 16-relation chain outlasts the 50 ms timer by far. *)
let test_shutdown_mid_solve () =
  let greedy i = request ~header:(Printf.sprintf "request id=g%d algo=greedy" i) inst2 in
  let input =
    request ~header:"request id=slow algo=dp" (chain_inst 16) ^ greedy 1 ^ greedy 2 ^ greedy 3
  in
  let timer v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = v }) in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Serve.Shutdown)) in
  let out, st =
    Fun.protect
      ~finally:(fun () ->
        timer 0.;
        Sys.set_signal Sys.sigalrm previous)
      (fun () ->
        timer 0.05;
        Serve.serve_string input)
  in
  Alcotest.(check bool) "marked interrupted" true st.Serve.interrupted;
  Alcotest.(check int) "nothing after the slow request was read" 1 st.Serve.requests;
  Alcotest.(check (list (list string))) "the slow request is answered as interrupted"
    [ [ "response id=1 status=error code=solver"; "error: interrupted by shutdown" ] ]
    (blocks out)

(* ---------------- socket transport ---------------- *)

let test_socket () =
  let path = Filename.temp_file "qopt_serve" ".sock" in
  let server =
    Domain.spawn (fun () -> Serve.serve_socket ~max_conns:1 path)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* the server unlinks and rebinds the path; retry until it listens *)
  let rec connect tries =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Unix.sleepf 0.02;
        connect (tries - 1)
  in
  connect 250;
  let payload = request ~header:"request id=s1 algo=dp" inst2
                ^ request ~header:"request id=s2 algo=dp" inst2 in
  let _ = Unix.write_substring fd payload 0 (String.length payload) in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        drain ()
  in
  drain ();
  Unix.close fd;
  let st = Domain.join server in
  let out = Buffer.contents buf in
  Alcotest.(check bool) "both responses arrived" true
    (contains out "response id=s1 status=ok" && contains out "response id=s2 status=ok");
  Alcotest.(check bool) "second was a cache hit" true (contains out "cache=hit");
  Alcotest.(check int) "stats aggregated" 2 st.Serve.requests;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ---------------- serving report ---------------- *)

let test_report_json () =
  let _out, st = Serve.serve_string (request inst2 ^ request inst2 ^ "junk\n") in
  match Serve.report_json ~jobs:2 st with
  | Obs.Json.Obj fields ->
      let get k = List.assoc_opt k fields in
      Alcotest.(check bool) "schema_version 1" true
        (get "schema_version" = Some (Obs.Json.Int 1));
      Alcotest.(check bool) "kind" true
        (get "kind" = Some (Obs.Json.Str "qopt-serve-report"));
      Alcotest.(check bool) "jobs" true (get "jobs" = Some (Obs.Json.Int 2));
      (match get "totals" with
      | Some (Obs.Json.Obj totals) ->
          Alcotest.(check bool) "requests total" true
            (List.assoc_opt "requests" totals = Some (Obs.Json.Int 3));
          Alcotest.(check bool) "hit rate = 1/2" true
            (List.assoc_opt "cache_hit_rate" totals = Some (Obs.Json.Float 0.5))
      | _ -> Alcotest.fail "missing totals object");
      Alcotest.(check bool) "counters present" true (get "counters" <> None);
      (* the envelope round-trips through the Json printer/parser *)
      Alcotest.(check bool) "serializes to parseable JSON" true
        (match Obs.Json.of_string (Obs.Json.to_string (Serve.report_json ~jobs:2 st)) with
        | Ok _ -> true
        | Error _ -> false)
  | _ -> Alcotest.fail "report is not a JSON object"

(* ---------------- introspection: control requests ---------------- *)

let member_of body k =
  match Obs.Json.of_string (String.trim body) with
  | Ok j -> Obs.Json.member k j
  | Error _ -> None

let test_control_requests () =
  let plain_in = request inst2 ^ request ~header:"request algo=greedy" inst2 in
  let ctl_in =
    "#health\n" ^ request inst2 ^ "#stats\n"
    ^ request ~header:"request algo=greedy" inst2
    ^ "#hist solve\n" ^ "#hist nope\n"
  in
  let plain_out, _ = Serve.serve_string plain_in in
  let before = Obs.snapshot () in
  let ctl_out, st = Serve.serve_string ctl_in in
  let d = Obs.diff before (Obs.snapshot ()) in
  let stripped, controls = Serve.split_control ctl_out in
  Alcotest.(check string) "non-control bytes identical to control-free run" plain_out
    stripped;
  Alcotest.(check int) "controls are not requests" 2 st.Serve.requests;
  Alcotest.(check (option int)) "control counter bumped once per control" (Some 4)
    (List.assoc_opt "serve.control.requests" d);
  match controls with
  | [ (h_health, b_health); (h_stats, b_stats); (h_solve, b_solve); (h_err, b_err) ] ->
      Alcotest.(check string) "health header" "control health status=ok" h_health;
      Alcotest.(check bool) "health kind" true
        (member_of b_health "kind" = Some (Obs.Json.Str "qopt-serve-control"));
      Alcotest.(check bool) "health schema_version" true
        (member_of b_health "schema_version" = Some (Obs.Json.Int 1));
      Alcotest.(check bool) "health at stream head: nothing accepted yet" true
        (member_of b_health "accepted" = Some (Obs.Json.Int 0));
      Alcotest.(check string) "stats header" "control stats status=ok" h_stats;
      Alcotest.(check bool) "stats accepted is the reader-side arrival count" true
        (member_of b_stats "accepted" = Some (Obs.Json.Int 1));
      Alcotest.(check bool) "stats carries totals" true (member_of b_stats "totals" <> None);
      Alcotest.(check string) "hist header carries the series name"
        "control hist status=ok name=solve" h_solve;
      Alcotest.(check bool) "hist body has buckets" true
        (match member_of b_solve "hist" with
        | Some h -> Obs.Json.member "buckets" h <> None
        | None -> false);
      Alcotest.(check string) "unknown series is a status=error block"
        "control hist status=error" h_err;
      Alcotest.(check bool) "error body names the valid series" true
        (contains b_err "error: unknown histogram" && contains b_err "solve")
  | l -> Alcotest.failf "expected 4 control blocks, got %d" (List.length l)

(* Satellite: the #stats totals key list is a pinned schema. Scrapers
   and the replay harness key on these exact field names in this exact
   order, so adding, renaming or reordering a field must be a
   conscious choice that updates this list (and the docs). *)
let test_stats_schema_pinned () =
  let out, _ = Serve.serve_string (request inst2 ^ "#stats\n") in
  let _, controls = Serve.split_control out in
  let stats_body =
    match List.find_opt (fun (h, _) -> h = "control stats status=ok") controls with
    | Some (_, b) -> b
    | None -> Alcotest.fail "no stats control block"
  in
  match member_of stats_body "totals" with
  | Some (Obs.Json.Obj kvs) ->
      Alcotest.(check (list string))
        "totals key list pinned"
        [
          "requests";
          "ok";
          "errors";
          "rejected";
          "cache_hits";
          "cache_misses";
          "coalesced";
          "cache_entries";
          "evictions";
          "fallbacks";
          "cache_hit_rate";
          "latency_ms";
        ]
        (List.map fst kvs);
      Alcotest.(check bool) "occupancy counts the cached plan" true
        (List.assoc "cache_entries" kvs = Obs.Json.Int 1)
  | _ -> Alcotest.fail "stats control block has no totals object"

(* Coalescing is observable deterministically even sequentially: with
   a batch of identical requests, the reader pass claims the entry once
   (miss) and every later duplicate in the batch lands on the
   still-Pending entry (hit + coalesce). At batch_size=1 the previous
   batch has always committed first, so coalesced stays 0. *)
let test_coalesce_deterministic () =
  let dup = request ~header:"request algo=dp" (chain_inst 7) in
  let stream = String.concat "" (List.init 4 (fun _ -> dup)) in
  let config = { Serve.default_config with Serve.batch_size = 4 } in
  let _out, st = Serve.serve_string ~config stream in
  Alcotest.(check int) "one miss" 1 st.Serve.cache_misses;
  Alcotest.(check int) "three hits" 3 st.Serve.cache_hits;
  Alcotest.(check int) "all three coalesced" 3 st.Serve.coalesced;
  let _out, st1 = Serve.serve_string stream in
  Alcotest.(check int) "batch_size=1 never coalesces" 0 st1.Serve.coalesced;
  Alcotest.(check int) "hit total unchanged" 3 st1.Serve.cache_hits

let test_control_byte_identity_concurrent () =
  let plain_in = request inst2 ^ request (chain_inst 6) ^ request ~header:"request algo=ccp" (chain_inst 5) in
  let ctl_in =
    "#stats\n" ^ request inst2 ^ "#health\n"
    ^ request (chain_inst 6)
    ^ "#hist latency\n"
    ^ request ~header:"request algo=ccp" (chain_inst 5)
  in
  let plain_out, _ = Serve.serve_string plain_in in
  List.iter
    (fun jobs ->
      let out, st =
        if jobs <= 1 then Serve.serve_string ctl_in
        else Pool.with_pool ~jobs (fun pool -> Serve.serve_string ~pool ctl_in)
      in
      let stripped, controls = Serve.split_control out in
      Alcotest.(check string)
        (Printf.sprintf "stripped bytes identical at jobs=%d" jobs)
        plain_out stripped;
      Alcotest.(check int) (Printf.sprintf "3 control blocks at jobs=%d" jobs) 3
        (List.length controls);
      Alcotest.(check int) (Printf.sprintf "3 requests at jobs=%d" jobs) 3
        st.Serve.requests)
    [ 1; 2 ]

(* ---------------- introspection: latency histograms ---------------- *)

let test_latency_histograms () =
  let n = 24 in
  let b = Buffer.create 1024 in
  for i = 0 to n - 1 do
    Buffer.add_string b (request (chain_inst (3 + (i mod 4))))
  done;
  let _out, st = Serve.serve_string (Buffer.contents b) in
  let lat = Obs.Histogram.snap st.Serve.latency in
  Alcotest.(check int) "one latency sample per request" n lat.Obs.Histogram.count;
  Alcotest.(check (list string)) "stage series names"
    [ "latency"; "queue_wait"; "prepare"; "cache"; "solve"; "commit" ]
    (List.map fst (Serve.latency_series st));
  let count name =
    (Obs.Histogram.snap (List.assoc name (Serve.latency_series st))).Obs.Histogram.count
  in
  Alcotest.(check int) "queue_wait sampled per request" n (count "queue_wait");
  Alcotest.(check int) "prepare sampled per request" n (count "prepare");
  Alcotest.(check bool) "solve sampled for non-cached requests" true (count "solve" > 0)

let test_heartbeat () =
  let _out, st =
    Serve.serve_string
      (request inst2 ^ request inst2 ^ "junk\n" ^ request ~header:"request algo=greedy" inst2)
  in
  (match Serve.heartbeat_json ~jobs:3 st with
  | Obs.Json.Obj fields ->
      let get k = List.assoc_opt k fields in
      Alcotest.(check bool) "schema_version 1" true
        (get "schema_version" = Some (Obs.Json.Int 1));
      Alcotest.(check bool) "kind" true
        (get "kind" = Some (Obs.Json.Str "qopt-serve-heartbeat"));
      Alcotest.(check bool) "jobs recorded" true (get "jobs" = Some (Obs.Json.Int 3));
      (match get "totals" with
      | Some t ->
          Alcotest.(check bool) "totals.requests" true
            (Obs.Json.member "requests" t = Some (Obs.Json.Int 4))
      | None -> Alcotest.fail "totals missing");
      (match get "stages" with
      | Some (Obs.Json.Obj stages) ->
          Alcotest.(check (list string)) "stage keys"
            [ "latency"; "queue_wait"; "prepare"; "cache"; "solve"; "commit" ]
            (List.map fst stages)
      | _ -> Alcotest.fail "stages missing")
  | _ -> Alcotest.fail "heartbeat is not a JSON object");
  let path = Filename.temp_file "qopt_hb" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Serve.write_heartbeat ~jobs:2 ~path st;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "heartbeat file is valid JSON" true
    (match Obs.Json.of_string text with Ok _ -> true | Error _ -> false);
  Alcotest.(check bool) "no torn tmp file left behind" false
    (Sys.file_exists (path ^ ".tmp"))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ok responses + canonical cache" `Quick test_ok_and_cache;
          Alcotest.test_case "plan-line rendering" `Quick test_render_plan_format;
          Alcotest.test_case "ccp on disconnected graph" `Quick test_ccp_disconnected;
        ] );
      ( "error isolation",
        [
          Alcotest.test_case "bad requests never kill the loop" `Quick test_error_isolation;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload;
          Alcotest.test_case "oversized declared n" `Quick test_oversized_n_payload;
        ] );
      ( "admission + budget",
        [
          Alcotest.test_case "admission control caps" `Quick test_admission;
          Alcotest.test_case "lattice alias = dp" `Quick test_algo_alias_lattice;
          Alcotest.test_case "registry entrants served" `Quick
            test_registry_entrants_served;
          Alcotest.test_case "per-algo caps are truthful" `Quick
            test_admission_caps_truthful;
          Alcotest.test_case "budget fallback" `Quick test_budget_fallback;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "hit refreshes LRU recency" `Quick test_lru_refresh;
          Alcotest.test_case "LRU is global across digest prefixes" `Quick test_lru_global;
        ] );
      ( "front map",
        [
          Alcotest.test_case "key separates domains" `Quick test_front_domain_separation;
          Alcotest.test_case "budget recomputed per request" `Quick
            test_front_budget_recomputed;
          Alcotest.test_case "csg budget on a front hit" `Quick test_front_csg_budget;
          Alcotest.test_case "repeated errors are byte-stable" `Quick
            test_front_repeated_errors;
          Alcotest.test_case "counters, capacity 0, eviction" `Quick test_front_counters;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "seq-vs-concurrent byte identity" `Quick
            test_concurrent_byte_identity;
          Alcotest.test_case "duplicate coalescing" `Quick test_concurrent_coalescing;
          Alcotest.test_case "canon counters are jobs-invariant" `Quick
            test_canon_counts_jobs_invariant;
          Alcotest.test_case "reader-committed batch keeps order" `Quick
            test_reader_commit_in_order;
          Alcotest.test_case "masked report determinism" `Quick
            test_report_masked_deterministic;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown mid-stream" `Quick test_shutdown_mid_stream;
          Alcotest.test_case "shutdown during a solve" `Quick test_shutdown_mid_solve;
          Alcotest.test_case "unix socket transport" `Quick test_socket;
          Alcotest.test_case "serving report" `Quick test_report_json;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "control requests answered in-band" `Quick
            test_control_requests;
          Alcotest.test_case "#stats totals schema pinned" `Quick
            test_stats_schema_pinned;
          Alcotest.test_case "deterministic coalescing" `Quick
            test_coalesce_deterministic;
          Alcotest.test_case "controls never perturb responses (jobs 1 vs 2)" `Quick
            test_control_byte_identity_concurrent;
          Alcotest.test_case "latency histogram series" `Quick test_latency_histograms;
          Alcotest.test_case "heartbeat snapshot" `Quick test_heartbeat;
        ] );
    ]
