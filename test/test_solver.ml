(* Tests for the first-class solver registry: the alias table, the
   generated parser/error-message strings, and the registry-driven
   exactness property — every entry that claims to be exact is
   bit-identical (cost AND sequence, in every cost domain it supports)
   to the lattice DP reference, up to its declared diff cap. New
   entrants get all of this coverage just by appearing in
   [Solver.all]. *)

module NR = Qo.Instances.Nl_rat
module OR = Qo.Instances.Opt_rat
module NL = Qo.Instances.Nl_log
module OL = Qo.Instances.Opt_log

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------------- registry shape ---------------- *)

let test_names_and_aliases () =
  check_str "canonical names, registry order" "dp|ccp|conv|greedy|sa|simpli|milp"
    Solver.expected_names;
  (match Solver.find "lattice" with
  | Some e -> check_str "lattice is an alias of dp" "dp" e.Solver.name
  | None -> Alcotest.fail "lattice alias not resolvable");
  (match Solver.find "dp" with
  | Some e -> check_str "dp resolves to itself" "dp" e.Solver.name
  | None -> Alcotest.fail "dp not resolvable");
  check "unknown names do not resolve" true (Solver.find "quantum" = None);
  (* names and aliases are globally unique: a duplicate would make
     resolution order-dependent *)
  let keys =
    List.concat_map (fun e -> e.Solver.name :: e.Solver.aliases) Solver.all
  in
  check "no duplicate names/aliases" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  (* every entry solves the rational domain; log-domain support is the
     optional one (explain and the fuzz rat reference rely on this) *)
  check "simpli supports both domains" true
    ((match Solver.find "simpli" with Some e -> e.Solver.solve_log <> None | None -> false));
  check "milp is rat-only" true
    ((match Solver.find "milp" with Some e -> e.Solver.solve_log = None | None -> false))

(* The skip-hint is generated: for the lattice DP it must render the
   historical "ccp or conv" byte-for-byte (the pinned CLI skip line
   depends on it), and for milp it must point at solvers that admit
   more relations than milp's own cap. *)
let test_hints () =
  let entry n = Option.get (Solver.find n) in
  check_str "dp hint" "ccp or conv" (Solver.hint (entry "dp"));
  check_str "milp hint" "dp or ccp or conv" (Solver.hint (entry "milp"))

(* The serve parser messages are generated from the registry — pin the
   exact bytes so message drift is a test failure, not a silent rot. *)
let chain2 = "qon 1\nn 2\nsize 0 100\nsize 1 20\nedge 0 1 sel 1/10 wij 15 wji 2\nend\n"

let has_line out line = List.mem line (String.split_on_char '\n' out)

let test_parser_messages () =
  let out, _ = Serve.serve_string ("request algo=quantum\n" ^ chain2) in
  check "unknown-algo message" true
    (has_line out
       "error: unknown algo \"quantum\" (expected dp|ccp|conv|greedy|sa|simpli|milp)");
  let out, _ = Serve.serve_string ("request id=x\n" ^ chain2) in
  check "missing-algo message" true
    (has_line out "error: missing algo=<dp|ccp|conv|greedy|sa|simpli|milp>");
  (* the lattice alias parses and the response carries the canonical name *)
  let out, st = Serve.serve_string ("request id=al algo=lattice\n" ^ chain2) in
  check "alias canonicalized in response" true
    (has_line out "response id=al status=ok algo=dp domain=rat cache=miss approximate=false");
  Alcotest.(check int) "alias request served" 1 st.Serve.ok

(* ---------------- exactness property ---------------- *)

let rat_shapes : (string * (seed:int -> n:int -> NR.t)) list =
  [
    ("random", fun ~seed ~n -> Qo.Gen_inst.R.random ~seed ~n ~p:0.5 ());
    ("chain", fun ~seed ~n -> Qo.Gen_inst.R.chain ~seed ~n ());
    ( "star",
      fun ~seed ~n ->
        if n < 2 then Qo.Gen_inst.R.chain ~seed ~n ()
        else Qo.Gen_inst.R.star ~seed ~satellites:(n - 1) () );
    ("clique", fun ~seed ~n -> Qo.Gen_inst.R.clique ~seed ~n ());
  ]

let log_shapes : (string * (seed:int -> n:int -> NL.t)) list =
  [
    ("random", fun ~seed ~n -> Qo.Gen_inst.L.random ~seed ~n ~p:0.5 ());
    ("chain", fun ~seed ~n -> Qo.Gen_inst.L.chain ~seed ~n ());
    ( "star",
      fun ~seed ~n ->
        if n < 2 then Qo.Gen_inst.L.chain ~seed ~n ()
        else Qo.Gen_inst.L.star ~seed ~satellites:(n - 1) () );
    ("clique", fun ~seed ~n -> Qo.Gen_inst.L.clique ~seed ~n ());
  ]

let property_cap = 12

(* Every exact entry, against the dp reference its exactness names:
   [Unconstrained] vs [Opt.dp] over the full lattice, [Cartesian_free]
   vs [Opt.dp_no_cartesian]. Cost and sequence must both match — plans
   are canonical, so "same cost, different order" is also a bug. *)
let test_exact_entries_bit_identical () =
  let cases = ref 0 in
  List.iter
    (fun (e : Solver.entry) ->
      match e.Solver.exact with
      | None -> ()
      | Some ex ->
          let cap = min property_cap e.Solver.diff_cap in
          for n = 1 to cap do
            for seed = 1 to 2 do
              List.iter
                (fun (shape, gen) ->
                  let ctx =
                    Printf.sprintf "%s rat %s n=%d seed=%d" e.Solver.name shape n seed
                  in
                  let i = gen ~seed ~n in
                  let a = e.Solver.solve_rat i in
                  let r =
                    match ex with
                    | Solver.Unconstrained -> OR.dp i
                    | Solver.Cartesian_free -> OR.dp_no_cartesian i
                  in
                  incr cases;
                  check (ctx ^ " cost") true (Qo.Rat_cost.equal a.OR.cost r.OR.cost);
                  check (ctx ^ " seq") true (a.OR.seq = r.OR.seq))
                rat_shapes;
              match e.Solver.solve_log with
              | None -> ()
              | Some solve ->
                  List.iter
                    (fun (shape, gen) ->
                      let ctx =
                        Printf.sprintf "%s log %s n=%d seed=%d" e.Solver.name shape n
                          seed
                      in
                      let i = gen ~seed ~n in
                      let a = solve i in
                      let r =
                        match ex with
                        | Solver.Unconstrained -> OL.dp i
                        | Solver.Cartesian_free -> OL.dp_no_cartesian i
                      in
                      incr cases;
                      check (ctx ^ " cost") true (Qo.Log_cost.equal a.OL.cost r.OL.cost);
                      check (ctx ^ " seq") true (a.OL.seq = r.OL.seq))
                    log_shapes
            done
          done)
    Solver.all;
  (* dp itself is skipped against dp only through exactness = its own
     reference; make sure the loop actually exercised the others *)
  check "property ran" true (!cases > 0)

(* Heuristic entries: the plan must realize its claimed cost and never
   beat the optimum (they search a subset of dp's space). *)
let test_heuristic_entries_bounded () =
  List.iter
    (fun (e : Solver.entry) ->
      if e.Solver.exact = None then
        for n = 1 to 8 do
          List.iter
            (fun (shape, gen) ->
              let ctx = Printf.sprintf "%s %s n=%d" e.Solver.name shape n in
              let i = gen ~seed:3 ~n in
              let a = e.Solver.solve_rat i in
              let opt = OR.dp i in
              check (ctx ^ " realizes cost") true
                (Qo.Rat_cost.equal (NR.cost i a.OR.seq) a.OR.cost);
              check (ctx ^ " >= optimum") true
                (Qo.Rat_cost.compare a.OR.cost opt.OR.cost >= 0))
            rat_shapes
        done)
    Solver.all

(* Past the lattice cap, conv dispatches to the connected DP: same
   cost and sequence as [Ccp.dp_connected] in both domains. A random
   tree's connected-subgraph count is exponential, so the trees are
   spiders (three paths joined at a hub). *)
let test_conv_dispatch_boundary () =
  let conv =
    match Solver.find "conv" with Some e -> e | None -> Alcotest.fail "conv not registered"
  in
  let dense_max = Qo.Instances.Opt_rat.max_dp_n in
  (match conv.Solver.budget with
  | Solver.B_dense_then_csg d ->
      Alcotest.(check int) "budget threshold = Opt.max_dp_n" dense_max d
  | _ -> Alcotest.fail "conv budget is not B_dense_then_csg");
  let spider legs =
    let g = Graphlib.Ugraph.create (1 + List.fold_left ( + ) 0 legs) in
    ignore
      (List.fold_left
         (fun base len ->
           Graphlib.Ugraph.add_edge g 0 base;
           for i = 0 to len - 2 do
             Graphlib.Ugraph.add_edge g (base + i) (base + i + 1)
           done;
           base + len)
         1 legs);
    g
  in
  let tree seed legs = Qo.Gen_inst.R.over_graph ~seed ~graph:(spider legs) () in
  let solve_log = Option.get conv.Solver.solve_log in
  List.iter
    (fun (label, i) ->
      let n = NR.n i in
      check (label ^ " is past the lattice cap") true (n > dense_max);
      let a = conv.Solver.solve_rat i and b = Qo.Instances.Ccp_rat.dp_connected i in
      check (label ^ " rat cost") true (Qo.Rat_cost.equal a.OR.cost b.OR.cost);
      check (label ^ " rat seq") true (a.OR.seq = b.OR.seq);
      let li = Qo.Instances.log_of_rat i in
      let a = solve_log li and b = Qo.Instances.Ccp_log.dp_connected li in
      check (label ^ " log cost") true (Qo.Log_cost.equal a.OL.cost b.OL.cost);
      check (label ^ " log seq") true (a.OL.seq = b.OL.seq))
    [
      ("chain n=24", Qo.Gen_inst.R.chain ~seed:4 ~n:24 ());
      ("chain n=40", Qo.Gen_inst.R.chain ~seed:4 ~n:40 ());
      ("tree n=24", tree 4 [ 8; 8; 7 ]);
      ("tree n=40", tree 4 [ 13; 13; 13 ]);
    ]

let () =
  Alcotest.run "solver"
    [
      ( "registry",
        [
          Alcotest.test_case "names + aliases" `Quick test_names_and_aliases;
          Alcotest.test_case "generated hints" `Quick test_hints;
          Alcotest.test_case "generated parser messages" `Quick test_parser_messages;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "exact entries bit-identical to dp" `Quick
            test_exact_entries_bit_identical;
          Alcotest.test_case "heuristic entries bounded by dp" `Quick
            test_heuristic_entries_bounded;
          Alcotest.test_case "conv dispatch boundary = ccp" `Quick
            test_conv_dispatch_boundary;
        ] );
    ]
