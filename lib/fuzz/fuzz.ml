(* Differential / metamorphic fuzzing of the optimizer portfolio.
   See fuzz.mli for the architecture overview. *)

type case = Rat of Qo.Instances.Nl_rat.t | Log of Qo.Instances.Nl_log.t

let case_n = function
  | Rat i -> i.Qo.Instances.Nl_rat.n
  | Log i -> i.Qo.Instances.Nl_log.n

let case_domain = function Rat _ -> "rat" | Log _ -> "log"

type outcome = Pass | Skip of string | Fail of string
type oracle = { name : string; check : case -> outcome }

(* Exact solvers are exponential: every oracle that runs a DP caps the
   instance size it will look at. Shrunk reproducers land well below
   the cap, so the caps never hide a failure — they only bound the cost
   of a single campaign slot. *)
let exact_cap = 12
let exhaustive_cap = 7

let c_runs = Obs.counter "fuzz.runs"
let c_failures = Obs.counter "fuzz.failures"
let c_shrink_steps = Obs.counter "fuzz.shrink_steps"

(* ------------------------------------------------------------------ *)
(* Per-domain machinery *)

module type DOMAIN = sig
  module C : Qo.Cost.S

  val name : string

  (* float domain: compare costs up to tolerance instead of exactly *)
  val approx : bool
  val dump : Qo.Nl.Make(C).t -> string
  val parse : string -> Qo.Nl.Make(C).t
  val half_toward_one : C.t -> C.t

  (* toward 0, staying in (0, 1] / toward 1 *)
  val sel_sharpen : C.t -> C.t
  val sel_soften : C.t -> C.t
  val fresh_sel : Random.State.t -> C.t
end

module Checks (D : DOMAIN) = struct
  module C = D.C
  module I = Qo.Nl.Make (D.C)
  module O = Qo.Opt.Make (D.C)
  module P = Qo.Ccp.Make (D.C)
  module K = Qo.Ik.Make (D.C)

  let tol = 1e-6
  let l2 = C.to_log2
  let show c = Printf.sprintf "2^%.6g" (l2 c)

  let eq a b =
    C.equal a b
    || (D.approx && (l2 a = l2 b || Float.abs (l2 a -. l2 b) <= tol))

  (* a >= b, up to tolerance in the float domain *)
  let ge a b = C.compare a b >= 0 || (D.approx && l2 b -. l2 a <= tol)

  (* -------- raw-matrix candidate builder (shrinker + mutator) ------ *)

  (* Rebuild an instance from possibly-out-of-band raw matrices:
     off-edge entries are forced to their mandated values and edge
     access costs are clamped into [t*s, t], so most candidate edits
     stay valid by construction. *)
  let rebuild ~graph ~sizes ~sel ~w =
    let n = Array.length sizes in
    let sel' = Array.make_matrix n n C.one in
    let w' = Array.make_matrix n n C.one in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && Graphlib.Ugraph.has_edge graph i j then begin
          let a = Stdlib.min i j and b = Stdlib.max i j in
          let s = sel.(a).(b) in
          let s = if C.compare s C.zero <= 0 then C.one else C.min C.one s in
          sel'.(i).(j) <- s;
          w'.(i).(j) <- C.min sizes.(i) (C.max (C.mul sizes.(i) s) w.(i).(j))
        end
        else w'.(i).(j) <- sizes.(i)
      done;
      w'.(i).(i) <- sizes.(i)
    done;
    I.make ~graph ~sel:sel' ~sizes ~w:w'

  let build ~graph ~sizes ~sel ~w =
    try Some (rebuild ~graph ~sizes ~sel ~w) with Invalid_argument _ -> None

  let project m idx = Array.map (fun a -> Array.map (fun b -> m.(a).(b)) idx) idx

  let drop_vertex (inst : I.t) v =
    let n = inst.I.n in
    if n <= 1 then None
    else
      let keep = List.filter (fun u -> u <> v) (List.init n Fun.id) in
      let idx = Array.of_list keep in
      build
        ~graph:(Graphlib.Ugraph.induced inst.I.graph keep)
        ~sizes:(Array.map (fun u -> inst.I.sizes.(u)) idx)
        ~sel:(project inst.I.sel idx) ~w:(project inst.I.w idx)

  (* Merge vertex j into its edge-neighbor i: j disappears, i inherits
     j's predicates (scalars clamped by [rebuild]). Keeps failures that
     depend on connectivity alive while still shrinking n. *)
  let contract_edge (inst : I.t) i j =
    let n = inst.I.n in
    if n <= 1 then None
    else begin
      let g = Graphlib.Ugraph.copy inst.I.graph in
      let sel = Array.map Array.copy inst.I.sel in
      let w = Array.map Array.copy inst.I.w in
      Graphlib.Bitset.iter
        (fun k ->
          if k <> i && not (Graphlib.Ugraph.has_edge g i k) then begin
            Graphlib.Ugraph.add_edge g i k;
            sel.(i).(k) <- inst.I.sel.(j).(k);
            sel.(k).(i) <- inst.I.sel.(j).(k);
            w.(i).(k) <- inst.I.w.(j).(k);
            w.(k).(i) <- inst.I.w.(k).(j)
          end)
        (Graphlib.Ugraph.neighbors inst.I.graph j);
      let keep = List.filter (fun u -> u <> j) (List.init n Fun.id) in
      let idx = Array.of_list keep in
      build
        ~graph:(Graphlib.Ugraph.induced g keep)
        ~sizes:(Array.map (fun u -> inst.I.sizes.(u)) idx)
        ~sel:(project sel idx) ~w:(project w idx)
    end

  let remove_edge (inst : I.t) i j =
    let g = Graphlib.Ugraph.copy inst.I.graph in
    Graphlib.Ugraph.remove_edge g i j;
    build ~graph:g ~sizes:(Array.copy inst.I.sizes) ~sel:inst.I.sel ~w:inst.I.w

  let with_size (inst : I.t) v x =
    if C.equal inst.I.sizes.(v) x || C.compare x C.zero <= 0 then None
    else begin
      let sizes = Array.copy inst.I.sizes in
      sizes.(v) <- x;
      build ~graph:inst.I.graph ~sizes ~sel:inst.I.sel ~w:inst.I.w
    end

  let with_sel (inst : I.t) i j s =
    if C.equal inst.I.sel.(i).(j) s then None
    else begin
      let sel = Array.map Array.copy inst.I.sel in
      sel.(i).(j) <- s;
      sel.(j).(i) <- s;
      build ~graph:inst.I.graph ~sizes:inst.I.sizes ~sel ~w:inst.I.w
    end

  let with_top_w (inst : I.t) i j =
    if C.equal inst.I.w.(i).(j) inst.I.sizes.(i) && C.equal inst.I.w.(j).(i) inst.I.sizes.(j)
    then None
    else begin
      let w = Array.map Array.copy inst.I.w in
      w.(i).(j) <- inst.I.sizes.(i);
      w.(j).(i) <- inst.I.sizes.(j);
      build ~graph:inst.I.graph ~sizes:inst.I.sizes ~sel:inst.I.sel ~w
    end

  (* Deterministic candidate order: structural reductions first (they
     shrink n), then scalar simplifications. *)
  let candidates (inst : I.t) =
    let n = inst.I.n in
    let edges = Graphlib.Ugraph.edges inst.I.graph in
    let vs = List.init n Fun.id in
    List.concat
      [
        List.map (fun v () -> drop_vertex inst v) vs;
        List.map (fun (i, j) () -> contract_edge inst i j) edges;
        List.map (fun (i, j) () -> remove_edge inst i j) edges;
        List.map (fun v () -> with_size inst v C.one) vs;
        List.map (fun v () -> with_size inst v (D.half_toward_one inst.I.sizes.(v))) vs;
        List.map (fun (i, j) () -> with_sel inst i j C.one) edges;
        List.map (fun (i, j) () -> with_top_w inst i j) edges;
      ]

  let max_shrink_steps = 200
  let max_shrink_evals = 4000

  let shrink_inst ~fails (inst : I.t) =
    let current = ref inst in
    let steps = ref 0 in
    let evals = ref 0 in
    let progress = ref true in
    while !progress && !steps < max_shrink_steps && !evals < max_shrink_evals do
      progress := false;
      (try
         List.iter
           (fun make ->
             if !evals >= max_shrink_evals then raise Exit;
             match make () with
             | None -> ()
             | Some cand ->
                 incr evals;
                 if fails cand then begin
                   current := cand;
                   incr steps;
                   progress := true;
                   raise Exit
                 end)
           (candidates !current)
       with Exit -> ())
    done;
    (!current, !steps)

  (* -------- corpus mutation ---------------------------------------- *)

  let mutate st (inst : I.t) =
    let n = inst.I.n in
    let graph = Graphlib.Ugraph.copy inst.I.graph in
    let sizes = Array.copy inst.I.sizes in
    let sel = Array.map Array.copy inst.I.sel in
    let w = Array.map Array.copy inst.I.w in
    let edges = Graphlib.Ugraph.edges graph in
    let pick_edge () =
      match edges with
      | [] -> None
      | l -> Some (List.nth l (Random.State.int st (List.length l)))
    in
    (match Random.State.int st 7 with
    | 0 ->
        let v = Random.State.int st n in
        sizes.(v) <- C.mul sizes.(v) (C.of_int 2)
    | 1 ->
        let v = Random.State.int st n in
        sizes.(v) <- D.half_toward_one sizes.(v)
    | 2 -> (
        match pick_edge () with
        | Some (i, j) ->
            let s = D.sel_sharpen sel.(i).(j) in
            sel.(i).(j) <- s;
            sel.(j).(i) <- s
        | None -> ())
    | 3 -> (
        match pick_edge () with
        | Some (i, j) ->
            let s = D.sel_soften sel.(i).(j) in
            sel.(i).(j) <- s;
            sel.(j).(i) <- s
        | None -> ())
    | 4 ->
        if n >= 2 then begin
          let i = Random.State.int st n and j = Random.State.int st n in
          if i <> j && not (Graphlib.Ugraph.has_edge graph i j) then begin
            Graphlib.Ugraph.add_edge graph i j;
            let s = D.fresh_sel st in
            sel.(i).(j) <- s;
            sel.(j).(i) <- s
            (* w.(i).(j) is currently t_i: already in band *)
          end
        end
    | 5 -> (
        match pick_edge () with
        | Some (i, j) -> Graphlib.Ugraph.remove_edge graph i j
        | None -> ())
    | _ -> (
        match pick_edge () with
        | Some (i, j) ->
            (* nudge one access cost to a bound *)
            w.(i).(j) <-
              (if Random.State.bool st then sizes.(i) else C.mul sizes.(i) sel.(i).(j))
        | None -> ()));
    match build ~graph ~sizes ~sel ~w with Some i -> i | None -> inst

  (* -------- oracles ------------------------------------------------- *)

  let dp_vs_ccp (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else
      let a = O.dp_no_cartesian inst in
      let b = P.dp_connected inst in
      if not (C.equal a.O.cost b.O.cost) then
        Fail
          (Printf.sprintf "dp_no_cartesian %s <> dp_connected %s" (show a.O.cost)
             (show b.O.cost))
      else if a.O.seq <> b.O.seq then Fail "dp_no_cartesian / dp_connected sequences differ"
      else Pass

  (* drives the multi-word (Bitset) subset machinery at small n, where
     the single-word path is the reference *)
  let ccp_words (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else
      let a = P.dp_connected inst in
      let b = P.dp_connected_words inst in
      if not (C.equal a.O.cost b.O.cost) then
        Fail
          (Printf.sprintf "single-word ccp %s <> multi-word ccp %s" (show a.O.cost)
             (show b.O.cost))
      else if a.O.seq <> b.O.seq then Fail "single-word / multi-word ccp sequences differ"
      else Pass

  let dp_vs_exhaustive (inst : I.t) =
    if inst.I.n > exhaustive_cap then Skip "n > exhaustive cap"
    else
      let a = O.dp inst in
      let e = O.exhaustive inst in
      if eq a.O.cost e.O.cost then Pass
      else Fail (Printf.sprintf "dp %s <> exhaustive %s" (show a.O.cost) (show e.O.cost))

  let dp_dominates (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else
      let a = O.dp inst in
      let b = O.dp_no_cartesian inst in
      if ge b.O.cost a.O.cost then Pass
      else
        Fail
          (Printf.sprintf "cartesian-free dp %s beats unconstrained dp %s" (show b.O.cost)
             (show a.O.cost))

  let ik_tree (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else if not (K.applicable inst) then Skip "query graph is not a tree"
    else
      let c, seq = K.solve inst in
      let nc = O.dp_no_cartesian inst in
      if not (eq c nc.O.cost) then
        Fail (Printf.sprintf "ik %s <> dp_no_cartesian %s" (show c) (show nc.O.cost))
      else if not (eq (I.cost inst seq) c) then
        Fail "ik sequence does not realize its claimed cost"
      else if inst.I.n >= 2 && I.has_cartesian inst seq then
        Fail "ik sequence contains a cartesian product"
      else Pass

  let relabel (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else if inst.I.n < 2 then Pass
    else begin
      let n = inst.I.n in
      let p v = n - 1 - v in
      let graph =
        Graphlib.Ugraph.of_edges n
          (List.map (fun (i, j) -> (p i, p j)) (Graphlib.Ugraph.edges inst.I.graph))
      in
      let sizes = Array.init n (fun v -> inst.I.sizes.(p v)) in
      let sel = Array.init n (fun i -> Array.init n (fun j -> inst.I.sel.(p i).(p j))) in
      let w = Array.init n (fun i -> Array.init n (fun j -> inst.I.w.(p i).(p j))) in
      match (try Some (I.make ~graph ~sel ~sizes ~w) with Invalid_argument m -> ignore m; None) with
      | None -> Fail "relabeled instance fails validation"
      | Some inst' ->
          let a = O.dp inst and b = O.dp inst' in
          if eq a.O.cost b.O.cost then Pass
          else
            Fail
              (Printf.sprintf "optimum changed under relabeling: %s <> %s" (show a.O.cost)
                 (show b.O.cost))
    end

  let io_roundtrip (inst : I.t) =
    let s = D.dump inst in
    match (try Ok (D.parse s) with Invalid_argument m -> Error m) with
    | Error m -> Fail ("dump does not parse back: " ^ m)
    | Ok inst' ->
        if D.dump inst' <> s then Fail "dump -> parse -> dump is not byte-identical"
        else Pass

  let scale_monotone (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else begin
      let k = C.of_int 4 in
      let sizes = Array.map (fun t -> C.mul k t) inst.I.sizes in
      let w = Array.map (Array.map (fun x -> C.mul k x)) inst.I.w in
      match
        (try Some (I.make ~graph:inst.I.graph ~sel:inst.I.sel ~sizes ~w)
         with Invalid_argument m -> ignore m; None)
      with
      | None -> Fail "scaled instance fails validation"
      | Some inst' ->
          let a = O.dp inst and b = O.dp inst' in
          if ge b.O.cost a.O.cost then Pass
          else
            Fail
              (Printf.sprintf "optimum decreased under x4 size scaling: %s < %s"
                 (show b.O.cost) (show a.O.cost))
    end

  let heuristic_bound (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else begin
      let exact = O.dp inst in
      let plans =
        [
          ("greedy(min-cost)", O.greedy ~mode:O.Min_cost inst);
          ("greedy(min-size)", O.greedy ~mode:O.Min_size inst);
          ("iterative-improvement", O.iterative_improvement ~seed:1 ~restarts:2 ~max_steps:200 inst);
          ("simulated-annealing", O.simulated_annealing ~seed:1 ~steps:500 inst);
        ]
      in
      let bad =
        List.find_map
          (fun (name, (p : O.plan)) ->
            if (try I.check_seq inst p.O.seq; false with Invalid_argument _ -> true) then
              Some (name ^ " returned an invalid join sequence")
            else if not (eq (I.cost inst p.O.seq) p.O.cost) then
              Some (name ^ " misreports its plan cost")
            else if not (ge p.O.cost exact.O.cost) then
              Some
                (Printf.sprintf "%s cost %s beats the exact optimum %s" name (show p.O.cost)
                   (show exact.O.cost))
            else None)
          plans
      in
      match bad with None -> Pass | Some m -> Fail m
    end

  let oneshot_vs_served (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else begin
      let payload = D.dump inst in
      let payload =
        if payload <> "" && payload.[String.length payload - 1] = '\n' then payload
        else payload ^ "\n"
      in
      let input = Printf.sprintf "request id=fz algo=dp domain=%s\n%send\n" D.name payload in
      let out, _stats = Serve.serve_string input in
      match String.split_on_char '\n' out with
      | header :: plan :: _
        when String.length header >= 24
             && String.sub header 0 24 = "response id=fz status=ok" ->
          let p = O.dp inst in
          let expected =
            Serve.render_plan ~label:"exact (subset DP)" ~log2_cost:(l2 p.O.cost) ~seq:p.O.seq
          in
          if plan = expected then Pass
          else Fail (Printf.sprintf "served plan %S <> one-shot %S" plan expected)
      | header :: _ -> Fail ("serve answered: " ^ header)
      | [] -> Fail "serve produced no response"
    end

  (* The concurrent serve pipeline promises byte-identical output to
     the sequential loop. Feed a small mixed stream — an exact solve,
     a duplicate (cache hit), a junk line (error path) and a heuristic
     solve — through both and require equal bytes and equal stats. *)
  let served_seq_vs_par (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else begin
      let payload = D.dump inst in
      let payload =
        if payload <> "" && payload.[String.length payload - 1] = '\n' then payload
        else payload ^ "\n"
      in
      let req id algo =
        Printf.sprintf "request id=%s algo=%s domain=%s\n%send\n" id algo D.name payload
      in
      let input = req "a" "dp" ^ req "b" "dp" ^ "junk\n" ^ req "c" "greedy" in
      let seq_out, seq_st = Serve.serve_string input in
      let par_out, par_st =
        Pool.with_pool ~jobs:2 (fun pool -> Serve.serve_string ~pool input)
      in
      let key (st : Serve.stats) =
        (st.requests, st.ok, st.errors, st.cache_hits, st.cache_misses, st.fallbacks)
      in
      if seq_out <> par_out then
        Fail
          (Printf.sprintf "concurrent serve output differs from sequential: %S <> %S"
             par_out seq_out)
      else if key par_st <> key seq_st then
        Fail "concurrent serve stats differ from sequential"
      else Pass
    end

  (* In-band #stats/#health/#hist control requests must not perturb
     normal traffic: stripping the control blocks from a run with
     controls interleaved must reproduce the control-free run's bytes
     and stats, and each control body must be a valid schema-versioned
     snapshot. *)
  let served_control (inst : I.t) =
    if inst.I.n > exact_cap then Skip "n > exact cap"
    else begin
      let payload = D.dump inst in
      let payload =
        if payload <> "" && payload.[String.length payload - 1] = '\n' then payload
        else payload ^ "\n"
      in
      let req id algo =
        Printf.sprintf "request id=%s algo=%s domain=%s\n%send\n" id algo D.name payload
      in
      let plain_in = req "a" "dp" ^ req "b" "dp" ^ "junk\n" ^ req "c" "greedy" in
      let ctl_in =
        "#stats\n" ^ req "a" "dp" ^ "#hist latency\n" ^ req "b" "dp" ^ "junk\n"
        ^ "#health\n" ^ req "c" "greedy" ^ "#stats\n"
      in
      let plain_out, plain_st = Serve.serve_string plain_in in
      let ctl_out, ctl_st = Serve.serve_string ctl_in in
      let stripped, ctls = Serve.split_control ctl_out in
      let key (st : Serve.stats) =
        (st.requests, st.ok, st.errors, st.cache_hits, st.cache_misses, st.fallbacks)
      in
      let ok_header h =
        match String.split_on_char ' ' h with
        | "control" :: _ :: "status=ok" :: _ -> true
        | _ -> false
      in
      let bad_ctl =
        List.find_map
          (fun (header, body) ->
            if not (ok_header header) then
              Some (Printf.sprintf "control answered %S" header)
            else
              match Obs.Json.of_string body with
              | Error msg -> Some (Printf.sprintf "control body is not JSON: %s" msg)
              | Ok j -> (
                  match (Obs.Json.member "schema_version" j, Obs.Json.member "kind" j) with
                  | Some (Obs.Json.Int 1), Some (Obs.Json.Str "qopt-serve-control") -> None
                  | _ -> Some (Printf.sprintf "control body missing envelope: %S" body)))
          ctls
      in
      if stripped <> plain_out then
        Fail
          (Printf.sprintf "non-control bytes perturbed by controls: %S <> %S" stripped
             plain_out)
      else if key ctl_st <> key plain_st then
        Fail "stats perturbed by control requests"
      else if List.length ctls <> 4 then
        Fail (Printf.sprintf "expected 4 control blocks, got %d" (List.length ctls))
      else match bad_ctl with Some m -> Fail m | None -> Pass
    end
end

module Dom_rat = struct
  module C = Qo.Rat_cost

  let name = "rat"
  let approx = false
  let dump = Qo.Io.dump_rat
  let parse = Qo.Io.parse_rat
  let half_toward_one x = C.div (C.add x C.one) (C.of_int 2)
  let sel_sharpen s = C.div s (C.of_int 2)
  let sel_soften s = C.min C.one (C.mul s (C.of_int 2))
  let fresh_sel st = C.of_ints 1 (1 + Random.State.int st 50)
end

module Dom_log = struct
  module C = Qo.Log_cost

  let name = "log"
  let approx = true
  let dump = Qo.Io.dump_log
  let parse = Qo.Io.parse_log
  let half_toward_one x = C.of_log2 (C.to_log2 x /. 2.)
  let sel_sharpen s = C.of_log2 (2. *. C.to_log2 s)
  let sel_soften s = C.of_log2 (C.to_log2 s /. 2.)
  let fresh_sel st = C.of_log2 (-.Random.State.float st 8.0)
end

module CR = Checks (Dom_rat)
module CL = Checks (Dom_log)

(* Rational instances double as log-domain test vectors: converting and
   re-optimizing must agree with exact arithmetic up to float noise. *)
let rat_vs_log (inst : Qo.Instances.Nl_rat.t) =
  if inst.Qo.Instances.Nl_rat.n > exact_cap then Skip "n > exact cap"
  else begin
    let li = Qo.Instances.log_of_rat inst in
    let pr = CR.O.dp inst in
    let pl = CL.O.dp li in
    let lr = Qo.Rat_cost.to_log2 pr.CR.O.cost in
    let ll = Qo.Log_cost.to_log2 pl.CL.O.cost in
    let tolerance = 1e-6 +. (1e-9 *. Float.abs lr) in
    if lr = ll || Float.abs (lr -. ll) <= tolerance then Pass
    else Fail (Printf.sprintf "rat optimum 2^%.9g <> log optimum 2^%.9g" lr ll)
  end

(* ------------------------------------------------------------------ *)
(* Registry *)

let per_domain name fr fl =
  { name; check = (function Rat i -> fr i | Log i -> fl i) }

let handwritten_oracles =
  [
    per_domain "dp-vs-ccp" CR.dp_vs_ccp CL.dp_vs_ccp;
    per_domain "ccp-words" CR.ccp_words CL.ccp_words;
    per_domain "dp-vs-exhaustive" CR.dp_vs_exhaustive CL.dp_vs_exhaustive;
    per_domain "dp-dominates" CR.dp_dominates CL.dp_dominates;
    per_domain "ik-tree" CR.ik_tree CL.ik_tree;
    {
      name = "rat-vs-log";
      check = (function Rat i -> rat_vs_log i | Log _ -> Skip "rational-domain oracle");
    };
    per_domain "oneshot-vs-served" CR.oneshot_vs_served CL.oneshot_vs_served;
    per_domain "served-seq-vs-par" CR.served_seq_vs_par CL.served_seq_vs_par;
    per_domain "served-control" CR.served_control CL.served_control;
    per_domain "relabel" CR.relabel CL.relabel;
    per_domain "io-roundtrip" CR.io_roundtrip CL.io_roundtrip;
    per_domain "scale-monotone" CR.scale_monotone CL.scale_monotone;
    per_domain "heuristic-bound" CR.heuristic_bound CL.heuristic_bound;
  ]

(* Auto-generated from the solver registry: every entrant beyond the
   seed portfolio (already covered by the handwritten oracles above)
   gets an oracle for free. An exact entrant must be bit-identical —
   cost AND sequence — to the dp reference ([Opt.dp] for
   [Unconstrained] exactness, [Opt.dp_no_cartesian] for
   [Cartesian_free]) up to the entry's diff cap, in every cost domain
   it supports; a heuristic entrant must realize its claimed cost with
   its own sequence and never beat the optimum. *)
let seed_portfolio = [ "dp"; "ccp"; "conv"; "greedy"; "sa" ]

let registry_oracles =
  let module NR = Qo.Instances.Nl_rat in
  let module OR = Qo.Instances.Opt_rat in
  let module NL = Qo.Instances.Nl_log in
  let module OL = Qo.Instances.Opt_log in
  let l2r = Qo.Rat_cost.to_log2 and l2l = Qo.Log_cost.to_log2 in
  let tol = 1e-6 in
  List.filter_map
    (fun (e : Solver.entry) ->
      if List.mem e.Solver.name seed_portfolio then None
      else
        let cap = Stdlib.min exact_cap e.Solver.diff_cap in
        match e.Solver.exact with
        | Some ex ->
            let check_rat (i : NR.t) =
              if i.NR.n > cap then Skip "n > registry diff cap"
              else
                let a = e.Solver.solve_rat i in
                let r =
                  match ex with
                  | Solver.Unconstrained -> OR.dp i
                  | Solver.Cartesian_free -> OR.dp_no_cartesian i
                in
                if not (Qo.Rat_cost.equal a.OR.cost r.OR.cost) then
                  Fail
                    (Printf.sprintf "%s 2^%.6g <> dp 2^%.6g" e.Solver.name
                       (l2r a.OR.cost) (l2r r.OR.cost))
                else if a.OR.seq <> r.OR.seq then
                  Fail (Printf.sprintf "%s / dp sequences differ" e.Solver.name)
                else Pass
            in
            let check_log (i : NL.t) =
              match e.Solver.solve_log with
              | None -> Skip "rational-domain oracle"
              | Some solve ->
                  if i.NL.n > cap then Skip "n > registry diff cap"
                  else
                    let a = solve i in
                    let r =
                      match ex with
                      | Solver.Unconstrained -> OL.dp i
                      | Solver.Cartesian_free -> OL.dp_no_cartesian i
                    in
                    if not (Qo.Log_cost.equal a.OL.cost r.OL.cost) then
                      Fail
                        (Printf.sprintf "%s 2^%.6g <> dp 2^%.6g" e.Solver.name
                           (l2l a.OL.cost) (l2l r.OL.cost))
                    else if a.OL.seq <> r.OL.seq then
                      Fail (Printf.sprintf "%s / dp sequences differ" e.Solver.name)
                    else Pass
            in
            Some
              {
                name = e.Solver.name ^ "-vs-dp";
                check = (function Rat i -> check_rat i | Log i -> check_log i);
              }
        | None ->
            let check_rat (i : NR.t) =
              if i.NR.n > cap then Skip "n > registry diff cap"
              else
                let module I = Qo.Instances.Nl_rat in
                let a = e.Solver.solve_rat i in
                let opt = OR.dp i in
                if not (Qo.Rat_cost.equal (I.cost i a.OR.seq) a.OR.cost) then
                  Fail
                    (Printf.sprintf "%s sequence does not realize its claimed cost"
                       e.Solver.name)
                else if Qo.Rat_cost.compare a.OR.cost opt.OR.cost < 0 then
                  Fail
                    (Printf.sprintf "%s 2^%.6g beats the optimum 2^%.6g" e.Solver.name
                       (l2r a.OR.cost) (l2r opt.OR.cost))
                else Pass
            in
            let check_log (i : NL.t) =
              match e.Solver.solve_log with
              | None -> Skip "rational-domain oracle"
              | Some solve ->
                  if i.NL.n > cap then Skip "n > registry diff cap"
                  else
                    let module I = Qo.Instances.Nl_log in
                    let a = solve i in
                    let opt = OL.dp i in
                    if Float.abs (l2l (I.cost i a.OL.seq) -. l2l a.OL.cost) > tol then
                      Fail
                        (Printf.sprintf "%s sequence does not realize its claimed cost"
                           e.Solver.name)
                    else if l2l opt.OL.cost -. l2l a.OL.cost > tol then
                      Fail
                        (Printf.sprintf "%s 2^%.6g beats the optimum 2^%.6g"
                           e.Solver.name (l2l a.OL.cost) (l2l opt.OL.cost))
                    else Pass
            in
            Some
              {
                name = e.Solver.name ^ "-bound";
                check = (function Rat i -> check_rat i | Log i -> check_log i);
              })
    Solver.all

(* End-to-end determinism of the trace subsystem: same params must
   yield byte-identical generated traces, and replaying the same trace
   twice must yield byte-identical non-control responses plus equal
   masked reports. The fuzz case seeds the trace generator (via a hash
   of its dump), so the campaign sweeps many generator seeds for free;
   control-probe responses and report timing fields are excluded from
   the comparison because wall-clock legitimately differs. Sampled
   1-in-4 by instance size — each invocation replays a small trace
   twice, which is orders costlier than a solver oracle. *)
let trace_replay_det =
  let check c =
    if case_n c mod 4 <> 0 then Skip "sampled 1-in-4 by n"
    else begin
      let text =
        match c with Rat i -> Qo.Io.dump_rat i | Log i -> Qo.Io.dump_log i
      in
      let seed = 1 + (Hashtbl.hash text land 0x3fff) in
      let p =
        {
          Trace.requests = 80;
          seed;
          skew = 0.9;
          pool_size = 24;
          templates = 2;
          drift_every = 20;
          burst = 3;
          hostile_pct = 10;
        }
      in
      let t1 = Trace.generate p and t2 = Trace.generate p in
      if t1 <> t2 then Fail "trace generation is not deterministic per params"
      else begin
        let out1, st1, s1 = Trace.replay ~probe_every:25 t1 in
        let out2, st2, s2 = Trace.replay ~probe_every:25 t1 in
        let b1, _ = Serve.split_control out1 and b2, _ = Serve.split_control out2 in
        if b1 <> b2 then Fail "replay responses differ across identical runs"
        else
          let r1 = Trace.report_json_masked ~jobs:1 ~trace:t1 ~out:out1 ~seconds:s1 st1 in
          let r2 = Trace.report_json_masked ~jobs:1 ~trace:t1 ~out:out2 ~seconds:s2 st2 in
          if r1 <> r2 then Fail "masked replay reports differ across identical runs"
          else Pass
      end
    end
  in
  { name = "trace-replay-det"; check }

let oracles = handwritten_oracles @ registry_oracles @ [ trace_replay_det ]

let oracle ~name check = { name; check }

let protect check c =
  try check c with e -> Fail ("exception: " ^ Printexc.to_string e)

let oracle_counter name kind = Obs.counter (Printf.sprintf "fuzz.oracle.%s.%s" name kind)

let check_case o c =
  let out = protect o.check c in
  (match out with
  | Pass -> Obs.incr (oracle_counter o.name "pass")
  | Skip _ -> Obs.incr (oracle_counter o.name "skip")
  | Fail _ -> Obs.incr (oracle_counter o.name "fail"));
  out

let replay c = List.map (fun o -> (o.name, check_case o c)) oracles

(* ------------------------------------------------------------------ *)
(* Corpus / reproducer files *)

let domain_directive = "# fuzz-domain:"

let dump_case ?(comments = []) case =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %s\n" domain_directive (case_domain case));
  List.iter (fun c -> Buffer.add_string b ("# " ^ c ^ "\n")) comments;
  Buffer.add_string b (match case with Rat i -> Qo.Io.dump_rat i | Log i -> Qo.Io.dump_log i);
  Buffer.contents b

let parse_case text =
  let domain = ref "rat" in
  List.iter
    (fun line ->
      let line = String.trim line in
      let dl = String.length domain_directive in
      if String.length line > dl && String.sub line 0 dl = domain_directive then
        match String.trim (String.sub line dl (String.length line - dl)) with
        | "rat" -> domain := "rat"
        | "log" -> domain := "log"
        | other -> invalid_arg (Printf.sprintf "Fuzz.parse_case: unknown domain %S" other))
    (String.split_on_char '\n' text);
  if !domain = "log" then Log (Qo.Io.parse_log text) else Rat (Qo.Io.parse_rat text)

let load_case path = parse_case (In_channel.with_open_bin path In_channel.input_all)

let save_case ?comments path case =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (dump_case ?comments case))

let load_corpus dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".qon")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load_case path))

(* ------------------------------------------------------------------ *)
(* Shrinking (case level) *)

let shrink o case =
  let fails c = match protect o.check c with Fail _ -> true | Pass | Skip _ -> false in
  let shrunk, steps =
    match case with
    | Rat i ->
        let i', s = CR.shrink_inst ~fails:(fun i -> fails (Rat i)) i in
        (Rat i', s)
    | Log i ->
        let i', s = CL.shrink_inst ~fails:(fun i -> fails (Log i)) i in
        (Log i', s)
  in
  Obs.add c_shrink_steps steps;
  (shrunk, steps)

(* ------------------------------------------------------------------ *)
(* Generators *)

let shapes =
  [| "random"; "tree"; "chain"; "star"; "cycle"; "grid"; "clique"; "treeplus" |]

let build_rat shape seed n : Qo.Instances.Nl_rat.t =
  let module G = Qo.Gen_inst.R in
  match shape with
  | "tree" -> G.tree ~seed ~n ()
  | "chain" -> G.chain ~seed ~n ()
  | "star" -> G.star ~seed ~satellites:(n - 1) ()
  | "cycle" -> G.cycle ~seed ~n ()
  | "grid" ->
      let rows, cols = Qo.Gen_inst.grid_dims n in
      G.grid ~seed ~rows ~cols ()
  | "clique" -> G.clique ~seed ~n ()
  | "treeplus" -> G.tree_plus ~seed ~n ~extra:2 ()
  | _ -> G.random ~seed ~n ~p:0.5 ()

let build_log shape seed n : Qo.Instances.Nl_log.t =
  let module G = Qo.Gen_inst.L in
  match shape with
  | "tree" -> G.tree ~seed ~n ()
  | "chain" -> G.chain ~seed ~n ()
  | "star" -> G.star ~seed ~satellites:(n - 1) ()
  | "cycle" -> G.cycle ~seed ~n ()
  | "grid" ->
      let rows, cols = Qo.Gen_inst.grid_dims n in
      G.grid ~seed ~rows ~cols ()
  | "clique" -> G.clique ~seed ~n ()
  | "treeplus" -> G.tree_plus ~seed ~n ~extra:2 ()
  | _ -> G.random ~seed ~n ~p:0.5 ()

let gen_shape st gseed =
  let shape = shapes.(Random.State.int st (Array.length shapes)) in
  let n = 2 + Random.State.int st 9 in
  let n = if shape = "cycle" then Stdlib.max n 3 else n in
  let rat = Random.State.bool st in
  let case = if rat then Rat (build_rat shape gseed n) else Log (build_log shape gseed n) in
  ( Printf.sprintf "gen:%s:%s:n=%d:seed=%d" (if rat then "rat" else "log") shape n gseed,
    case )

let gen_adversarial st gseed =
  match Random.State.int st 4 with
  | 0 ->
      (* the paper's f_N co-cluster reduction: uniform, huge scalars *)
      let n = 4 + Random.State.int st 6 in
      let omega = Stdlib.max 2 (n / 2) in
      let graph = Graphlib.Gen.with_clique_number ~n ~omega in
      let c = float_of_int omega /. float_of_int n in
      let r = Reductions.Fn.reduce ~graph ~c ~d:(c /. 2.0) ~log2_a:8.0 in
      ( Printf.sprintf "adv:cocluster:n=%d:omega=%d" n omega,
        Log r.Reductions.Fn.instance )
  | 1 ->
      (* disconnected query graph: cartesian-free DP must be infeasible *)
      let na = 2 + Random.State.int st 3 and nb = 2 + Random.State.int st 3 in
      let g =
        Graphlib.Ugraph.disjoint_union
          (Graphlib.Gen.random_tree ~seed:gseed ~n:na)
          (Graphlib.Gen.random_tree ~seed:(gseed + 1) ~n:nb)
      in
      ( Printf.sprintf "adv:disconnected:n=%d" (na + nb),
        Rat (Qo.Gen_inst.R.over_graph ~seed:gseed ~graph:g ()) )
  | 2 ->
      (* single relation: every n-dependent base case *)
      ( "adv:singleton",
        Rat (Qo.Gen_inst.R.over_graph ~seed:gseed ~graph:(Graphlib.Ugraph.create 1) ()) )
  | _ ->
      (* extreme magnitudes: sizes up to 2^300 stress %.17g round-trips *)
      let n = 2 + Random.State.int st 7 in
      ( Printf.sprintf "adv:extreme:n=%d" n,
        Log (Qo.Gen_inst.L.random ~seed:gseed ~n ~p:0.6 ~max_log2_size:300.0 ()) )

let mutate_case st = function
  | Rat i -> Rat (CR.mutate st i)
  | Log i -> Log (CL.mutate st i)

let max_mutation_n = 64

let gen_corpus st corpus =
  let idx = Random.State.int st (Array.length corpus) in
  let base = corpus.(idx) in
  if case_n base > max_mutation_n then (Printf.sprintf "corpus:asis:%d" idx, base)
  else begin
    let rounds = 1 + Random.State.int st 3 in
    let case = ref base in
    for _ = 1 to rounds do
      case := mutate_case st !case
    done;
    (Printf.sprintf "corpus:mut%d:%d" rounds idx, !case)
  end

let generate ~corpus ~seed ~run =
  let st = Random.State.make [| seed; run; 0xf0220 |] in
  let bucket = Random.State.int st 100 in
  let gseed = Random.State.int st 0x3FFFFFFF in
  if bucket < 45 || (bucket >= 65 && Array.length corpus = 0) then gen_shape st gseed
  else if bucket < 65 then gen_adversarial st gseed
  else gen_corpus st corpus

(* ------------------------------------------------------------------ *)
(* Campaign *)

type failure = {
  run : int;
  oracle : string;
  descriptor : string;
  message : string;
  n_original : int;
  n_shrunk : int;
  shrink_steps : int;
  shrunk : case;
}

type result = {
  runs : int;
  checks : int;
  passes : int;
  skips : int;
  fails : int;
  shrink_steps : int;
  per_oracle : (string * (int * int * int)) list;
  mix : (string * int) list;
  failures : failure list;
  mutable seconds : float;
}

let bucket_of descriptor =
  match String.index_opt descriptor ':' with
  | Some i -> String.sub descriptor 0 i
  | None -> descriptor

let run_campaign ?pool ?(corpus = [||]) ?only ~seed ~runs () =
  let active =
    match only with
    | None -> oracles
    | Some names ->
        List.iter
          (fun name ->
            if not (List.exists (fun o -> o.name = name) oracles) then
              invalid_arg (Printf.sprintf "Fuzz.run_campaign: unknown oracle %S" name))
          names;
        List.filter (fun o -> List.mem o.name names) oracles
  in
  let t0 = Unix.gettimeofday () in
  let one run =
    let descriptor, case = generate ~corpus ~seed ~run in
    Obs.incr c_runs;
    let outs = List.map (fun o -> (o.name, check_case o case)) active in
    (run, descriptor, case, outs)
  in
  let slots = Array.init runs Fun.id in
  let results =
    match pool with
    | Some p when runs > 1 -> Pool.parallel_map p one slots
    | _ -> Array.map one slots
  in
  let per = Hashtbl.create 16 in
  let mix = Hashtbl.create 8 in
  let bump tbl key f zero =
    Hashtbl.replace tbl key (f (Option.value ~default:zero (Hashtbl.find_opt tbl key)))
  in
  let checks = ref 0 and passes = ref 0 and skips = ref 0 and fails = ref 0 in
  let failures = ref [] in
  let total_shrink = ref 0 in
  Array.iter
    (fun (run, descriptor, case, outs) ->
      bump mix (bucket_of descriptor) (fun v -> v + 1) 0;
      List.iter
        (fun (name, out) ->
          incr checks;
          match out with
          | Pass -> bump per name (fun (p, s, f) -> (p + 1, s, f)) (0, 0, 0); incr passes
          | Skip _ -> bump per name (fun (p, s, f) -> (p, s + 1, f)) (0, 0, 0); incr skips
          | Fail message ->
              bump per name (fun (p, s, f) -> (p, s, f + 1)) (0, 0, 0);
              incr fails;
              Obs.incr c_failures;
              let o = List.find (fun o -> o.name = name) active in
              let shrunk, steps = shrink o case in
              total_shrink := !total_shrink + steps;
              failures :=
                {
                  run;
                  oracle = name;
                  descriptor;
                  message;
                  n_original = case_n case;
                  n_shrunk = case_n shrunk;
                  shrink_steps = steps;
                  shrunk;
                }
                :: !failures)
        outs)
    results;
  let per_oracle =
    List.map
      (fun o -> (o.name, Option.value ~default:(0, 0, 0) (Hashtbl.find_opt per o.name)))
      active
  in
  let mix =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) mix []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    runs;
    checks = !checks;
    passes = !passes;
    skips = !skips;
    fails = !fails;
    shrink_steps = !total_shrink;
    per_oracle;
    mix;
    failures = List.rev !failures;
    seconds = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Reproducers and reports *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save_reproducer ~dir f =
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "repro-%s-run%d.qon" f.oracle f.run) in
  let comments =
    [
      "oracle: " ^ f.oracle;
      "message: " ^ f.message;
      "descriptor: " ^ f.descriptor;
      Printf.sprintf "shrunk: n=%d from n=%d in %d steps" f.n_shrunk f.n_original
        f.shrink_steps;
      "replay: qopt fuzz " ^ path;
    ]
  in
  save_case ~comments path f.shrunk;
  path

let report_json ~jobs ~seed r =
  let open Obs.Json in
  let totals =
    Obj
      [
        ("runs", Int r.runs);
        ("checks", Int r.checks);
        ("passes", Int r.passes);
        ("skips", Int r.skips);
        ("failures", Int r.fails);
        ("shrink_steps", Int r.shrink_steps);
        ("seconds", Float r.seconds);
      ]
  in
  let per_oracle =
    Arr
      (List.map
         (fun (name, (p, s, f)) ->
           Obj [ ("oracle", Str name); ("pass", Int p); ("skip", Int s); ("fail", Int f) ])
         r.per_oracle)
  in
  let mix = Obj (List.map (fun (k, v) -> (k, Int v)) r.mix) in
  let failures =
    Arr
      (List.map
         (fun f ->
           Obj
             [
               ("run", Int f.run);
               ("oracle", Str f.oracle);
               ("descriptor", Str f.descriptor);
               ("message", Str f.message);
               ("domain", Str (case_domain f.shrunk));
               ("n_original", Int f.n_original);
               ("n_shrunk", Int f.n_shrunk);
               ("shrink_steps", Int f.shrink_steps);
             ])
         r.failures)
  in
  Obs.run_report ~kind:"qopt-fuzz-report"
    ~extra:
      [
        ("jobs", Int jobs);
        ("seed", Int seed);
        ("totals", totals);
        ("per_oracle", per_oracle);
        ("generator_mix", mix);
        ("failures", failures);
      ]
    ()
