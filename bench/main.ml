(* Benchmark harness.

   Two parts:

   1. Regeneration: print the full experiment tables E1..E10 (the
      paper, a pure hardness result, has no tables of its own; these
      experiments make each theorem/lemma empirically observable — see
      DESIGN.md section 4 and EXPERIMENTS.md).

   2. Timing: one Bechamel [Test.make] per experiment, benchmarking the
      computational kernel that experiment rests on (exact subset DP,
      cost-profile evaluation, pipeline decomposition DP, the reduction
      constructions, the exact deciders, ...). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 2 kernels *)

module OL = Qo.Instances.Opt_log
module NL = Qo.Instances.Nl_log
open Reductions

let fn_instance ~n ~omega =
  let g = Graphlib.Gen.with_clique_number ~n ~omega in
  let c = float_of_int omega /. float_of_int n in
  Fn.reduce ~graph:g ~c ~d:(c /. 3.0) ~log2_a:8.0

let bench_tests () =
  (* prebuild inputs outside the timed closures *)
  let r16 = fn_instance ~n:16 ~omega:12 in
  let clique16 = Graphlib.Clique.max_clique r16.Fn.instance.NL.graph in
  let seq16 = Fn.clique_first_seq r16 clique16 in
  let fh12 =
    Fh.reduce ~graph:(Graphlib.Gen.with_clique_number ~n:12 ~omega:8) ~log2_a:8.0 ()
  in
  let clique12 = Graphlib.Clique.max_clique (Graphlib.Gen.with_clique_number ~n:12 ~omega:8) in
  let seq12, _ = Fh.lemma12_plan fh12 ~clique:clique12 in
  let ns12 = Qo.Hash.prefix_sizes fh12.Fh.instance seq12 in
  let g_sparse = Graphlib.Gen.with_clique_number ~n:8 ~omega:6 in
  let lo_sparse, _ = Fne.edge_budget ~graph:g_sparse ~k:2 in
  let sat_f = Sat.Gen.planted ~seed:7 ~nvars:12 ~nclauses:40 in
  let fh6 = Fh.reduce ~graph:(Graphlib.Gen.with_clique_number ~n:6 ~omega:4) ~log2_a:8.0 () in
  let sppcs_inst = (Partition_to_sppcs.reduce [ 3; 1; 2; 2 ]).Partition_to_sppcs.sppcs in
  let rat_inst =
    let module NR = Qo.Instances.Nl_rat in
    let module RC = Qo.Rat_cost in
    let g = Graphlib.Gen.gnp ~seed:3 ~n:10 ~p:0.5 in
    let sizes = Array.init 10 (fun i -> RC.of_int (10 + (i * 7))) in
    let sel = Array.make_matrix 10 10 RC.one in
    List.iter
      (fun (i, j) ->
        sel.(i).(j) <- RC.of_ints 1 ((i + j) + 2);
        sel.(j).(i) <- sel.(i).(j))
      (Graphlib.Ugraph.edges g);
    let w =
      Array.init 10 (fun i ->
          Array.init 10 (fun j ->
              if i <> j && Graphlib.Ugraph.has_edge g i j then
                RC.max (RC.mul sizes.(i) sel.(i).(j)) (RC.of_int 2) |> RC.min sizes.(i)
              else sizes.(i)))
    in
    NR.make ~graph:g ~sel ~sizes ~w
  in
  [
    (* E1: the exact optimizer that measures the QO_N gap *)
    Test.make ~name:"E1-subset-dp-n16" (Staged.stage (fun () -> OL.dp r16.Fn.instance));
    (* E2: H_i profile evaluation along a sequence *)
    Test.make ~name:"E2-cost-profile-n16" (Staged.stage (fun () -> NL.profile r16.Fn.instance seq16));
    (* E3: QO_H exhaustive optimum at n=6 (7 relations) *)
    Test.make ~name:"E3-hash-exhaustive-n6" (Staged.stage (fun () -> Qo.Hash.exhaustive fh6.Fh.instance));
    (* E4: one fractional-knapsack memory allocation *)
    Test.make ~name:"E4-mem-allocate"
      (Staged.stage (fun () -> Qo.Hash.allocate fh12.Fh.instance ~ns:ns12 seq12 ~i:2 ~k:5));
    (* E5: the sparse reduction construction f_{N,e} (m = 64) *)
    Test.make ~name:"E5-fne-reduce-m64"
      (Staged.stage (fun () ->
           Fne.reduce ~graph:g_sparse ~c:0.75 ~d:0.25 ~k:2
             ~e:(fun m -> Stdlib.max lo_sparse (m + m))
             ()));
    (* E6: pipeline-decomposition DP on the f_H witness sequence *)
    Test.make ~name:"E6-decomposition-dp-n12"
      (Staged.stage (fun () -> Qo.Hash.best_decomposition fh12.Fh.instance seq12));
    (* E7: the full Theorem-9 chain on a 12-variable formula *)
    Test.make ~name:"E7-theorem9-chain" (Staged.stage (fun () -> Chain.theorem9 sat_f));
    (* E8: PARTITION -> SPPCS reduction + exact SPPCS decision *)
    Test.make ~name:"E8-sppcs-decide" (Staged.stage (fun () -> Sqo.Sppcs.decide sppcs_inst));
    (* E9: a polynomial-time baseline (greedy, all starts) *)
    Test.make ~name:"E9-greedy-n16"
      (Staged.stage (fun () -> OL.greedy ~mode:OL.Min_cost r16.Fn.instance));
    (* E10: exact rational subset DP (cross-validation side) *)
    Test.make ~name:"E10-rational-dp-n10"
      (Staged.stage (fun () -> Qo.Instances.Opt_rat.dp rat_inst));
    (* E11: the f_N construction itself (alpha dial) *)
    Test.make ~name:"E11-fn-reduce-n16"
      (Staged.stage (fun () -> fn_instance ~n:16 ~omega:12));
    (* E12: exhaustive QO_H optimum under a varied memory budget *)
    Test.make ~name:"E12-hash-exhaustive-mem"
      (Staged.stage (fun () ->
           Qo.Hash.exhaustive
             { fh6.Fh.instance with Qo.Hash.memory = Logreal.mul fh6.Fh.memory Logreal.two }));
    (* E13: f_H construction across nu *)
    Test.make ~name:"E13-fh-reduce-nu07"
      (Staged.stage (fun () ->
           Fh.reduce ~nu:0.7 ~graph:(Graphlib.Gen.with_clique_number ~n:9 ~omega:6) ~log2_a:8.0 ()));
    (* E14: IK rank ordering on a tree query *)
    Test.make ~name:"E14-ik-tree-n14"
      (Staged.stage
         (let inst = Qo.Gen_inst.L.tree ~seed:5 ~n:14 () in
          fun () -> Qo.Instances.Ik_log.solve inst));
    (* E15: the printed-constants construction (exact bignum heavy) *)
    Test.make ~name:"E15-paper-text-sppcs"
      (Staged.stage (fun () -> Partition_to_sppcs.paper_text [ 3; 1; 2; 2 ]));
  ]

let run_benchmarks () =
  let tests = Test.make_grouped ~name:"kernels" (bench_tests ()) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "\n== Timing benchmarks (one kernel per experiment) ==\n";
  Printf.printf "%-34s %14s %8s\n" "kernel" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 58 '-');
  List.map
    (fun (name, ols) ->
      let time_ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
      in
      let pretty =
        if time_ns >= 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
        else if time_ns >= 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
        else if time_ns >= 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
        else Printf.sprintf "%.0f ns" time_ns
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Printf.printf "%-34s %14s %8.4f\n" name pretty r2;
      (name, time_ns, r2))
    rows

(* ------------------------------------------------------------------ *)
(* Scaling series - the figure-equivalents (the paper has no figures;
   these curves document where each exact method stops scaling and the
   polynomial methods keep going). *)

let median3 f =
  let t () = snd (Obs.time (fun () -> ignore (f ()))) in
  let a = t () and b = t () and c = t () in
  List.nth (List.sort compare [ a; b; c ]) 1

let scaling_series () =
  print_endline "\n== Scaling series (figure-equivalents) ==";
  print_endline "\nF1: exact subset DP (QO_N optimum) vs n  [exponential]";
  Printf.printf "%6s %12s\n" "n" "seconds";
  List.iter
    (fun n ->
      let r = fn_instance ~n ~omega:(3 * n / 4) in
      Printf.printf "%6d %12.4f\n" n (median3 (fun () -> OL.dp r.Fn.instance)))
    [ 10; 12; 14; 16; 18; 20 ];
  print_endline "\nF2: exact max clique (Tomita B&B) on co-cluster graphs vs n";
  Printf.printf "%6s %12s\n" "n" "seconds";
  List.iter
    (fun n ->
      let g = Graphlib.Gen.with_clique_number ~n ~omega:(n / 2) in
      Printf.printf "%6d %12.4f\n" n (median3 (fun () -> Graphlib.Clique.max_clique g)))
    [ 30; 45; 60; 75; 90 ];
  print_endline "\nF3: Ibaraki-Kameda on tree queries vs n  [polynomial]";
  Printf.printf "%6s %12s\n" "n" "seconds";
  List.iter
    (fun n ->
      let inst = Qo.Gen_inst.L.tree ~seed:5 ~n () in
      Printf.printf "%6d %12.4f\n" n (median3 (fun () -> Qo.Instances.Ik_log.solve inst)))
    [ 25; 50; 100; 200; 400 ];
  print_endline "\nF4: CDCL vs DPLL on planted 3SAT (ratio 3) vs variables";
  Printf.printf "%6s %12s %12s\n" "vars" "cdcl (s)" "dpll (s)";
  List.iter
    (fun v ->
      let f = Sat.Gen.planted ~seed:v ~nvars:v ~nclauses:(3 * v) in
      let cdcl = median3 (fun () -> Sat.Cdcl.solve f) in
      (* the didactic DPLL has no learning; cap it where it can wander *)
      let dpll = if v > 160 then nan else median3 (fun () -> Sat.Dpll.solve f) in
      Printf.printf "%6d %12.4f %12s\n" v cdcl
        (if Float.is_nan dpll then "skipped" else Printf.sprintf "%.4f" dpll))
    [ 40; 80; 160; 320 ]

(* ------------------------------------------------------------------ *)
(* Sequential-vs-parallel: the layer-parallel subset DP must be
   bit-identical to the sequential DP, and the wall-clock ratio on the
   E1-sized instances documents the speedup (≥ 1.5x expected with
   --jobs 4 on a 4-core host; ~1.0x on a single core). *)

let parallel_dp_check ~jobs =
  Printf.printf "\n== Parallel subset DP: equivalence + speedup (jobs=%d, threshold n>=%d) ==\n"
    jobs OL.dp_parallel_min_n;
  Printf.printf "%6s %12s %12s %9s %10s %12s\n" "n" "seq (s)" "par (s)" "speedup" "parallel"
    "bit-identical";
  let mismatches = ref 0 in
  let rows =
    Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun n ->
            let r = fn_instance ~n ~omega:(3 * n / 4) in
            let seq, t_seq = Obs.time (fun () -> OL.dp r.Fn.instance) in
            let par, t_par = Obs.time (fun () -> OL.dp ~pool r.Fn.instance) in
            let same = Logreal.compare seq.OL.cost par.OL.cost = 0 && seq.OL.seq = par.OL.seq in
            (* below the work threshold ~pool must take the sequential
               path, so the "speedup" documents overhead avoided, not
               layer fan-out *)
            let active = n >= OL.dp_parallel_min_n in
            if not same then incr mismatches;
            Printf.printf "%6d %12.4f %12.4f %8.2fx %10s %12s\n" n t_seq t_par
              (if t_par > 0.0 then t_seq /. t_par else Float.nan)
              (if active then "yes" else "no")
              (if same then "yes" else "NO");
            (n, t_seq, t_par, active, same))
          [ 16; 18; 20 ])
  in
  (!mismatches, rows)

(* ------------------------------------------------------------------ *)
(* Connected-subgraph DP (Ccp.dp_connected) vs the lattice DP: the
   plans must be bit-identical where both enumerators run, and the ccp
   table — sized by the number of connected subsets instead of 2^n —
   reaches sparse instances past the lattice's max_dp_n = 23. *)

module CCP = Qo.Instances.Ccp_log

let ccp_dp_check ~jobs =
  Printf.printf "\n== Connected-subgraph DP vs lattice DP (sparse reach) ==\n";
  let mismatches = ref 0 in
  Printf.printf "%-10s %4s %16s %12s %12s %9s %14s\n" "graph" "n" "csg / 2^n"
    "lattice (s)" "ccp (s)" "speedup" "bit-identical";
  let vs_rows =
    List.map
      (fun (name, graph) ->
        let inst = Qo.Gen_inst.L.over_graph ~seed:11 ~graph () in
        let n = NL.n inst in
        let lat, t_lat = Obs.time (fun () -> OL.dp_no_cartesian inst) in
        let ccp, t_ccp = Obs.time (fun () -> CCP.dp_connected inst) in
        let same =
          Logreal.compare lat.OL.cost ccp.OL.cost = 0 && lat.OL.seq = ccp.OL.seq
        in
        if not same then incr mismatches;
        Printf.printf "%-10s %4d %16s %12.4f %12.4f %8.1fx %14s\n" name n
          (Printf.sprintf "%d / %d" (CCP.csg_count inst) (1 lsl n))
          t_lat t_ccp
          (if t_ccp > 0.0 then t_lat /. t_ccp else Float.nan)
          (if same then "yes" else "NO");
        (name, n, CCP.csg_count inst, t_lat, t_ccp, same))
      [
        ("chain", Graphlib.Gen.path 20);
        ("tree", Graphlib.Gen.random_tree ~seed:3 ~n:20);
        ("cycle", Graphlib.Gen.cycle 20);
        ("grid-4x5", Graphlib.Gen.grid ~rows:4 ~cols:5);
      ]
  in
  (* past the lattice limit: the 2^n table no longer fits, the
     connected-subset table still does *)
  Printf.printf "\n%-10s %4s %16s %12s %12s\n" "graph" "n" "csg (vs 2^n)" "ccp (s)" "cost";
  let beyond_rows =
    Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun (name, graph) ->
            let inst = Qo.Gen_inst.L.over_graph ~seed:11 ~graph () in
            let n = NL.n inst in
            let p, t = Obs.time (fun () -> CCP.dp_connected ~pool inst) in
            (* a full-length sequence is the invariant a wrong enumeration
               would break first (missing connected sets -> no plan) *)
            if Array.length p.OL.seq <> n then incr mismatches;
            Printf.printf "%-10s %4d %16s %12.4f %12s\n" name n
              (Printf.sprintf "%d / 2^%d" (CCP.csg_count inst) n)
              t
              (Printf.sprintf "2^%.1f" (Logreal.to_log2 p.OL.cost));
            (name, n, CCP.csg_count inst, t, Logreal.to_log2 p.OL.cost))
          [
            ("chain", Graphlib.Gen.path 28);
            ("tree", Graphlib.Gen.random_tree ~seed:9 ~n:28);
            ("cycle", Graphlib.Gen.cycle 28);
            ("grid-4x6", Graphlib.Gen.grid ~rows:4 ~cols:6);
          ])
  in
  (!mismatches, vs_rows, beyond_rows)

(* ------------------------------------------------------------------ *)
(* The conv entrant vs the connected DP. Two regimes:

   - clique-ish graphs at matched n: nearly every subset is connected,
     so ccp's hashed connected-subset walk degenerates to the full
     lattice plus hashing overhead, while conv's lattice DP
     (dp_no_cartesian, flat arrays) pays no hashing at all;
   - chain/tree past the old 61-relation single-word ceiling: the
     multi-word sparse regime, where a full-length join sequence is
     the invariant a broken enumeration would break first. *)

module CV = Qo.Instances.Conv_log

let conv_check ~jobs =
  Printf.printf "\n== Subset convolution vs connected DP (dense + multi-word reach) ==\n";
  let mismatches = ref 0 in
  Printf.printf "%-12s %4s %12s %12s %9s %14s\n" "graph" "n" "ccp (s)" "conv (s)"
    "speedup" "bit-identical";
  let vs_rows =
    List.map
      (fun (name, graph) ->
        let inst = Qo.Gen_inst.L.over_graph ~seed:11 ~graph () in
        let n = NL.n inst in
        let ccp, t_ccp = Obs.time (fun () -> CCP.dp_connected inst) in
        let cv, t_cv = Obs.time (fun () -> CV.solve inst) in
        let same =
          Logreal.compare ccp.OL.cost cv.OL.cost = 0 && ccp.OL.seq = cv.OL.seq
        in
        if not same then incr mismatches;
        Printf.printf "%-12s %4d %12.4f %12.4f %8.1fx %14s\n" name n t_ccp t_cv
          (if t_cv > 0.0 then t_ccp /. t_cv else Float.nan)
          (if same then "yes" else "NO");
        (name, n, t_ccp, t_cv, same))
      [
        ("clique-14", Graphlib.Ugraph.complete 14);
        ("clique-16", Graphlib.Ugraph.complete 16);
        ("clique-18", Graphlib.Ugraph.complete 18);
        ("gnp-16-p80", Graphlib.Gen.gnp ~seed:7 ~n:16 ~p:0.8);
      ]
  in
  (* past the old single-word ceiling (n > 61): the sparse regime on
     Bitset-backed subsets. Shapes must keep the connected-subgraph
     count polynomial — a random tree's is exponential (every branch
     vertex multiplies subtree choices), so the tree row is a spider:
     three paths joined at a hub, csg ~ (n/3)^3. *)
  let spider ~legs ~len =
    let g = Graphlib.Ugraph.create (1 + (legs * len)) in
    for l = 0 to legs - 1 do
      let base = 1 + (l * len) in
      Graphlib.Ugraph.add_edge g 0 base;
      for i = 0 to len - 2 do
        Graphlib.Ugraph.add_edge g (base + i) (base + i + 1)
      done
    done;
    g
  in
  ignore jobs;
  Printf.printf "\n%-12s %4s %16s %12s %12s\n" "graph" "n" "csg (vs 2^n)" "conv (s)" "cost";
  let beyond_rows =
    List.map
      (fun (name, graph) ->
        let inst = Qo.Gen_inst.L.over_graph ~seed:11 ~graph () in
        let n = NL.n inst in
        let p, t = Obs.time (fun () -> CV.solve inst) in
        if Array.length p.OL.seq <> n then incr mismatches;
        Printf.printf "%-12s %4d %16s %12.4f %12s\n" name n
          (Printf.sprintf "%d / 2^%d" (CCP.csg_count inst) n)
          t
          (Printf.sprintf "2^%.1f" (Logreal.to_log2 p.OL.cost));
        (name, n, CCP.csg_count inst, t, Logreal.to_log2 p.OL.cost))
      [
        ("chain", Graphlib.Gen.path 128);
        ("spider-3x21", spider ~legs:3 ~len:21);
        ("chain-192", Graphlib.Gen.path 192);
      ]
  in
  (!mismatches, vs_rows, beyond_rows)

(* ------------------------------------------------------------------ *)
(* qopt serve under a mixed workload: 120 requests — valid (with heavy
   duplication, exercising the plan cache), malformed, oversized, and
   budget-capped — through one in-process serving loop. The loop must
   survive all of it (a single uncaught exception would abort the
   bench), hit the exact expected ok/error/rejected split, answer
   cache hits byte-identically, and report throughput + hit rate. *)

let serve_workload_check () =
  Printf.printf "\n== qopt serve: mixed 120-request workload ==\n";
  let module NR = Qo.Instances.Nl_rat in
  let module OR_ = Qo.Instances.Opt_rat in
  let dp_insts = List.init 8 (fun i -> Qo.Gen_inst.R.tree ~seed:(100 + i) ~n:7 ()) in
  let ccp_insts = List.init 4 (fun i -> Qo.Gen_inst.R.chain ~seed:(200 + i) ~n:9 ()) in
  let greedy_insts = List.init 10 (fun i -> Qo.Gen_inst.R.random ~seed:(300 + i) ~n:8 ~p:0.5 ()) in
  let fb_insts = List.init 3 (fun i -> Qo.Gen_inst.R.tree ~seed:(400 + i) ~n:8 ()) in
  let big_chain =
    let b = Buffer.create 512 in
    Buffer.add_string b "qon 1\nn 24\n";
    for i = 0 to 23 do
      Buffer.add_string b (Printf.sprintf "size %d 4\n" i)
    done;
    for i = 0 to 22 do
      Buffer.add_string b (Printf.sprintf "edge %d %d sel 1/2 wij 2 wji 2\n" i (i + 1))
    done;
    Buffer.contents b
  in
  let buf = Buffer.create 65536 in
  let req ?(header = "request algo=dp") payload =
    Buffer.add_string buf header;
    Buffer.add_char buf '\n';
    Buffer.add_string buf payload;
    Buffer.add_string buf "end\n"
  in
  let round insts header reps =
    for _ = 1 to reps do
      List.iter (fun inst -> req ~header (Qo.Io.dump_rat inst)) insts
    done
  in
  round dp_insts "request algo=dp" 5 (* 40: 8 misses + 32 hits *);
  round ccp_insts "request algo=ccp" 5 (* 20: 4 misses + 16 hits *);
  round greedy_insts "request algo=greedy" 2 (* 20: 10 misses + 10 hits *);
  round fb_insts "request algo=dp budget_ms=0" 5 (* 15: 3 misses + 12 hits, approximate *);
  for _ = 1 to 8 do
    req ~header:"request algo=quantum" (Qo.Io.dump_rat (List.hd dp_insts))
  done;
  for _ = 1 to 4 do
    Buffer.add_string buf "not a request at all\n"
  done;
  for _ = 1 to 3 do
    req "qon 1\nthis payload does not parse\n"
  done;
  for _ = 1 to 10 do
    req big_chain
  done;
  let (out, st), seconds = Obs.time (fun () -> Serve.serve_string (Buffer.contents buf)) in
  (* byte-identity spot check: the served dp plan line for the first
     instance must equal the directly rendered optimum *)
  let p = OR_.dp (List.hd dp_insts) in
  let dp_line =
    Serve.render_plan ~label:"exact (subset DP)"
      ~log2_cost:(Qo.Rat_cost.to_log2 p.OR_.cost) ~seq:p.OR_.seq
  in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let byte_identical = contains out dp_line in
  let expect name got want =
    if got = want then 0
    else begin
      Printf.printf "  MISMATCH %-12s got %d, expected %d\n" name got want;
      1
    end
  in
  let mismatches =
    expect "requests" st.Serve.requests 120
    + expect "ok" st.Serve.ok 95
    + expect "errors" st.Serve.errors 15
    + expect "rejected" st.Serve.rejected 10
    + expect "cache hits" st.Serve.cache_hits 70
    + expect "cache misses" st.Serve.cache_misses 25
    + (if byte_identical then 0
       else begin
         Printf.printf "  MISMATCH served dp plan line differs from direct render\n";
         1
       end)
  in
  let throughput = float_of_int st.Serve.requests /. seconds in
  Printf.printf
    "  %d requests in %.3fs (%.0f req/s): %d ok, %d error, %d rejected; cache %d/%d \
     (%.0f%% hit rate); byte-identical %s\n"
    st.Serve.requests seconds throughput st.Serve.ok st.Serve.errors st.Serve.rejected
    st.Serve.cache_hits
    (st.Serve.cache_hits + st.Serve.cache_misses)
    (100. *. Serve.hit_rate st)
    (if byte_identical then "yes" else "NO");
  (mismatches, st, seconds, throughput, byte_identical)

(* ------------------------------------------------------------------ *)
(* Sustained-load serve benchmark: one deterministic mixed workload —
   cache hits (heavily duplicated small instances), misses, admission
   rejections, parse errors, junk lines and budget fallbacks — replayed
   through the serving loop once per jobs setting. Every jobs>1 output
   must be byte-identical to the jobs=1 output; rows record throughput
   and p50/p95/p99 request latency. No Random anywhere: request i picks
   from its pool by (i * 7919) mod size, so the stream is reproducible
   across runs and machines. *)

let serve_concurrent_workload ~requests =
  let dump_tree seed n = Qo.Io.dump_rat (Qo.Gen_inst.R.tree ~seed ~n ()) in
  let dp_pool = Array.init 150 (fun i -> dump_tree (1000 + i) (6 + (i mod 3))) in
  let ccp_pool =
    Array.init 50 (fun i -> Qo.Io.dump_rat (Qo.Gen_inst.R.chain ~seed:(2000 + i) ~n:9 ()))
  in
  let greedy_pool =
    Array.init 100 (fun i ->
        Qo.Io.dump_rat (Qo.Gen_inst.R.random ~seed:(3000 + i) ~n:8 ~p:0.5 ()))
  in
  let fb_pool = Array.init 20 (fun i -> dump_tree (4000 + i) 8) in
  let big_chain =
    let b = Buffer.create 1024 in
    Buffer.add_string b "qon 1\nn 24\n";
    for i = 0 to 23 do
      Buffer.add_string b (Printf.sprintf "size %d 4\n" i)
    done;
    for i = 0 to 22 do
      Buffer.add_string b (Printf.sprintf "edge %d %d sel 1/2 wij 2 wji 2\n" i (i + 1))
    done;
    Buffer.contents b
  in
  let buf = Buffer.create (requests * 192) in
  let req header payload =
    Buffer.add_string buf header;
    Buffer.add_char buf '\n';
    Buffer.add_string buf payload;
    Buffer.add_string buf "end\n"
  in
  for i = 0 to requests - 1 do
    (* in-band introspection probes, mid-stream: the responses ride the
       same output channel but must not perturb a single non-control
       byte (checked below by stripping them before the jobs-1 diff) *)
    if i = requests / 3 then Buffer.add_string buf "#stats\n";
    if i = requests / 2 then Buffer.add_string buf "#health\n";
    if i = 2 * requests / 3 then Buffer.add_string buf "#hist solve\n";
    let pick arr = arr.((i * 7919) mod Array.length arr) in
    match i mod 20 with
    | 7 -> Buffer.add_string buf "sustained-load junk line\n" (* bad-request error *)
    | 13 -> req "request algo=dp" big_chain (* admission rejection *)
    | 17 -> req "request algo=dp" "qon 1\nthis payload does not parse\n" (* parse error *)
    | 3 -> req "request algo=dp budget_ms=0" (pick fb_pool) (* budget fallback *)
    | 5 | 15 -> req "request algo=ccp" (pick ccp_pool)
    | 2 | 12 | 18 -> req "request algo=greedy" (pick greedy_pool)
    | _ -> req "request algo=dp" (pick dp_pool)
  done;
  Buffer.contents buf

let serve_concurrent_check ~requests ~jobs_list =
  (* speedups only mean anything relative to the cores actually
     available — on a 1-core host every jobs>1 run is pure
     oversubscription and lands below 1.0x by design *)
  Printf.printf
    "\n== qopt serve: sustained %d-request workload, concurrent pipeline (%d core(s)) ==\n"
    requests
    (Domain.recommended_domain_count ());
  let input = serve_concurrent_workload ~requests in
  let config =
    {
      Serve.default_config with
      Serve.cache_capacity = 1024;
      batch_size = 32;
      (* keep the exact per-request latencies so the histogram
         quantiles can be checked against ground truth below *)
      record_exact_latencies = true;
    }
  in
  let run jobs =
    Obs.time (fun () ->
        if jobs <= 1 then Serve.serve_string ~config input
        else Pool.with_pool ~jobs (fun pool -> Serve.serve_string ~pool ~config input))
  in
  let stats_key (st : Serve.stats) =
    ( st.Serve.requests,
      st.Serve.ok,
      st.Serve.errors,
      st.Serve.rejected,
      st.Serve.cache_hits,
      st.Serve.cache_misses,
      st.Serve.fallbacks )
  in
  (* A control block is valid when its header reports status=ok and its
     body is one line of schema-versioned JSON; the #stats snapshot must
     additionally report a positive accepted count — it was issued a
     third of the way into the stream, and [accepted] is the reader-side
     arrival counter, so it is deterministic at any jobs (the committed
     totals may legitimately lag the reader in the concurrent pipeline). *)
  let controls_ok controls =
    let json_ok body =
      match Obs.Json.of_string (String.trim body) with
      | Error _ -> false
      | Ok j -> (
          match (Obs.Json.member "schema_version" j, Obs.Json.member "kind" j) with
          | Some (Obs.Json.Int 1), Some (Obs.Json.Str "qopt-serve-control") -> true
          | _ -> false)
    in
    let header_ok h =
      match String.split_on_char ' ' h with
      | "control" :: _ :: "status=ok" :: _ -> true
      | _ -> false
    in
    let stats_has_progress (h, body) =
      String.length h >= 13
      && String.sub h 0 13 = "control stats"
      &&
      match Obs.Json.of_string (String.trim body) with
      | Ok j -> (
          match Obs.Json.member "accepted" j with
          | Some (Obs.Json.Int n) -> n > 0
          | _ -> false)
      | Error _ -> false
    in
    List.length controls = 3
    && List.for_all (fun (h, body) -> header_ok h && json_ok body) controls
    && List.exists stats_has_progress controls
  in
  (* exact nearest-rank percentile over the recorded per-request
     latencies — the ground truth the histogram quantile must land
     within one bucket width of *)
  let exact_percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else
      let rank = int_of_float (Float.round (q /. 100. *. float_of_int (n - 1))) in
      sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
  in
  let hist_vs_exact (st : Serve.stats) =
    let sorted = Array.of_list st.Serve.exact_latencies_ms in
    Array.sort compare sorted;
    List.map
      (fun q ->
        let hist_ms = Serve.latency_percentile st q in
        let exact_ms = exact_percentile sorted q in
        (* one bucket width at the exact value, in ms, plus 1ns of
           slack for the float->int truncation when recording *)
        let width_ms =
          float_of_int (Obs.Histogram.width_at (int_of_float (exact_ms *. 1e6))) /. 1e6
        in
        let within = Float.abs (hist_ms -. exact_ms) <= width_ms +. 1e-6 in
        (q, hist_ms, exact_ms, width_ms, within))
      [ 50.; 95.; 99. ]
  in
  Printf.printf "%6s %10s %12s %9s %9s %9s %9s %14s %8s %9s\n" "jobs" "seconds" "req/s"
    "speedup" "p50 ms" "p95 ms" "p99 ms" "byte-identical" "ctl-ok" "hist-ok";
  let mismatches = ref 0 in
  let base = ref None in
  let rows =
    List.map
      (fun jobs ->
        let (out, st), seconds = run jobs in
        let plain, controls = Serve.split_control out in
        let base_plain, base_st, base_s =
          match !base with
          | None ->
              base := Some (plain, st, seconds);
              (plain, st, seconds)
          | Some b -> b
        in
        let identical =
          String.equal plain base_plain && stats_key st = stats_key base_st
        in
        if not identical then begin
          incr mismatches;
          Printf.printf "  MISMATCH jobs=%d output differs from sequential run\n" jobs
        end;
        let control_ok = controls_ok controls in
        if not control_ok then begin
          incr mismatches;
          Printf.printf "  MISMATCH jobs=%d invalid control responses (%d block(s))\n" jobs
            (List.length controls)
        end;
        let hve = hist_vs_exact st in
        List.iter
          (fun (q, hist_ms, exact_ms, width_ms, within) ->
            if not within then begin
              incr mismatches;
              Printf.printf
                "  MISMATCH jobs=%d p%g histogram %.6fms vs exact %.6fms (width %.6fms)\n"
                jobs q hist_ms exact_ms width_ms
            end)
          hve;
        let hist_ok = List.for_all (fun (_, _, _, _, w) -> w) hve in
        let throughput = float_of_int st.Serve.requests /. seconds in
        let p50 = Serve.latency_percentile st 50.
        and p95 = Serve.latency_percentile st 95.
        and p99 = Serve.latency_percentile st 99. in
        Printf.printf "%6d %10.3f %12.0f %8.2fx %9.3f %9.3f %9.3f %14s %8s %9s\n" jobs
          seconds throughput
          (if seconds > 0.0 then base_s /. seconds else Float.nan)
          p50 p95 p99
          (if identical then "yes" else "NO")
          (if control_ok then "yes" else "NO")
          (if hist_ok then "yes" else "NO");
        (jobs, st, seconds, throughput, p50, p95, p99, identical, control_ok, hve))
      jobs_list
  in
  (!mismatches, config, rows)

let serve_concurrent_json ~requests ~(config : Serve.config) rows =
  let open Obs.Json in
  Obj
    [
      ("requests", Int requests);
      ("workload", Str "mixed: cache hits/misses, rejections, parse errors, junk, fallbacks");
      ("host_cores", Int (Domain.recommended_domain_count ()));
      ("cache_capacity", Int config.Serve.cache_capacity);
      ("queue_capacity", Int config.Serve.queue_capacity);
      ("batch_size", Int config.Serve.batch_size);
      ( "rows",
        Arr
          (List.map
             (fun (jobs, st, seconds, throughput, p50, p95, p99, identical, control_ok, hve) ->
               Obj
                 [
                   ("jobs", Int jobs);
                   ("requests", Int st.Serve.requests);
                   ("ok", Int st.Serve.ok);
                   ("errors", Int st.Serve.errors);
                   ("rejected", Int st.Serve.rejected);
                   ("cache_hits", Int st.Serve.cache_hits);
                   ("cache_misses", Int st.Serve.cache_misses);
                   ("fallbacks", Int st.Serve.fallbacks);
                   ("seconds", Float seconds);
                   ("requests_per_s", Float throughput);
                   ("p50_ms", Float p50);
                   ("p95_ms", Float p95);
                   ("p99_ms", Float p99);
                   ("byte_identical_to_sequential", Bool identical);
                   ("control_ok", Bool control_ok);
                   ( "hist_vs_exact",
                     Arr
                       (List.map
                          (fun (q, hist_ms, exact_ms, width_ms, within) ->
                            Obj
                              [
                                ("q", Float q);
                                ("hist_ms", Float hist_ms);
                                ("exact_ms", Float exact_ms);
                                ("width_ms", Float width_ms);
                                ("within", Bool within);
                              ])
                          hve) );
                 ])
             rows) );
    ]

(* ------------------------------------------------------------------ *)
(* Latency-store before/after: serve used to keep every request latency
   in a sorted float list, re-sorted on every batch merge — O(total^2
   log) comparisons over a run and O(requests) memory. The histogram
   replacement is O(1) per record and O(buckets) memory regardless of
   sample count. The old strategy is emulated here verbatim (append a
   32-element batch, re-sort) on a reduced sample count because running
   it at 100k would dominate the whole bench; rates are per-sample so
   the two sides stay comparable. *)

let latency_store_check () =
  let hist_samples = 100_000 and old_samples = 20_000 and batch = 32 in
  let sample i =
    float_of_int (((i * 7919) mod 9973) + (i mod 97) * 1000) /. 100.
  in
  Printf.printf "\n== serve latency store: sorted-list merge vs log-bucket histogram ==\n";
  let h = Obs.Histogram.create () in
  let (), hist_s =
    Obs.time (fun () ->
        for i = 0 to hist_samples - 1 do
          Obs.Histogram.record h (int_of_float (sample i *. 1e6))
        done)
  in
  let store = ref [] in
  let (), old_s =
    Obs.time (fun () ->
        let pending = ref [] and n_pending = ref 0 in
        let flush () =
          store := List.sort compare (List.rev_append !pending !store);
          pending := [];
          n_pending := 0
        in
        for i = 0 to old_samples - 1 do
          pending := sample i :: !pending;
          incr n_pending;
          if !n_pending >= batch then flush ()
        done;
        flush ())
  in
  let per_s n s = if s > 0.0 then float_of_int n /. s else Float.nan in
  let hist_rate = per_s hist_samples hist_s and old_rate = per_s old_samples old_s in
  Printf.printf "  %-28s %9d samples %10.4fs %14.0f samples/s\n" "histogram (new)"
    hist_samples hist_s hist_rate;
  Printf.printf "  %-28s %9d samples %10.4fs %14.0f samples/s\n"
    "sorted-list merge (old)" old_samples old_s old_rate;
  Printf.printf "  speedup %.1fx; memory: %d buckets (fixed) vs %d stored floats (grows)\n"
    (if old_rate > 0.0 then hist_rate /. old_rate else Float.nan)
    Obs.Histogram.bucket_count (List.length !store);
  let open Obs.Json in
  Obj
    [
      ("hist_samples", Int hist_samples);
      ("hist_seconds", Float hist_s);
      ("hist_samples_per_s", Float hist_rate);
      ("old_samples", Int old_samples);
      ("old_seconds", Float old_s);
      ("old_samples_per_s", Float old_rate);
      ("speedup", Float (if old_rate > 0.0 then hist_rate /. old_rate else Float.nan));
      ("hist_buckets", Int Obs.Histogram.bucket_count);
      ("old_store_entries", Int (List.length !store));
    ]

(* ------------------------------------------------------------------ *)
(* A fuzz campaign as a bench row: 300 seeded runs through the full
   oracle registry (corpus mutations included when fuzz/corpus is
   visible from the cwd). Zero failures is a hard requirement — any
   disagreement between the shipped solvers fails the bench. *)

let fuzz_campaign_check ~jobs =
  Printf.printf "\n== qopt fuzz: 300-run campaign over %d oracles ==\n"
    (List.length Fuzz.oracles);
  let corpus = Array.of_list (List.map snd (Fuzz.load_corpus "fuzz/corpus")) in
  let run () =
    if jobs > 1 then
      Pool.with_pool ~jobs (fun pool -> Fuzz.run_campaign ~pool ~corpus ~seed:1 ~runs:300 ())
    else Fuzz.run_campaign ~corpus ~seed:1 ~runs:300 ()
  in
  let r, seconds = Obs.time run in
  let throughput = float_of_int r.Fuzz.runs /. seconds in
  Printf.printf
    "  %d runs in %.3fs (%.0f runs/s): %d checks, %d pass, %d skip, %d fail; corpus %d\n"
    r.Fuzz.runs seconds throughput r.Fuzz.checks r.Fuzz.passes r.Fuzz.skips r.Fuzz.fails
    (Array.length corpus);
  List.iter
    (fun f ->
      Printf.printf "  FAIL %s on run %d (%s): %s\n" f.Fuzz.oracle f.Fuzz.run f.Fuzz.descriptor
        f.Fuzz.message)
    r.Fuzz.failures;
  (r.Fuzz.fails, r, seconds, throughput)

(* Cache realism of the trace generator: replaying the same synthetic
   workload at increasing Zipf skew must raise the plan-cache hit rate
   monotonically — the headline signal that generated traffic is
   cache-realistic rather than uniform noise. The default pool (512
   base instances) exceeds the default cache capacity (256), so the
   replays run under eviction pressure and the curve has room to move;
   any non-increase across adjacent skews fails the bench. *)
let trace_skew_check () =
  Printf.printf "\n== trace replay: cache hit rate vs Zipf skew (20k requests each) ==\n";
  let rows =
    List.map
      (fun skew ->
        let p = { Trace.default_params with Trace.requests = 20_000; seed = 21; skew } in
        let t = Trace.generate p in
        let _out, st, seconds = Trace.replay ~probe_every:1000 t in
        Printf.printf
          "  skew %.1f: %5d hits / %5d misses (%.4f hit rate), %d coalesced, %d \
           evicted, %d resident, %.2fs (%.0f req/s)\n"
          skew st.Serve.cache_hits st.Serve.cache_misses (Serve.hit_rate st)
          st.Serve.coalesced st.Serve.evictions st.Serve.cache_entries seconds
          (float_of_int st.Serve.requests /. seconds);
        (skew, st, seconds))
      [ 0.2; 0.8; 1.4 ]
  in
  let violations = ref 0 in
  let rec check = function
    | (s1, st1, _) :: ((s2, st2, _) :: _ as rest) ->
        if Serve.hit_rate st2 <= Serve.hit_rate st1 then begin
          incr violations;
          Printf.printf "  VIOLATION: hit rate fell %.4f (s=%.1f) -> %.4f (s=%.1f)\n"
            (Serve.hit_rate st1) s1 (Serve.hit_rate st2) s2
        end;
        check rest
    | _ -> ()
  in
  check rows;
  (!violations, rows)

let trace_json rows =
  let open Obs.Json in
  Arr
    (List.map
       (fun (skew, st, seconds) ->
         Obj
           [
             ("skew", Float skew);
             ("requests", Int st.Serve.requests);
             ("cache_hits", Int st.Serve.cache_hits);
             ("cache_misses", Int st.Serve.cache_misses);
             ("coalesced", Int st.Serve.coalesced);
             ("evictions", Int st.Serve.evictions);
             ("cache_entries", Int st.Serve.cache_entries);
             ("cache_hit_rate", Float (Serve.hit_rate st));
             ("errors", Int st.Serve.errors);
             ("fallbacks", Int st.Serve.fallbacks);
             ("seconds", Float seconds);
             ("requests_per_s", Float (float_of_int st.Serve.requests /. seconds));
             ( "latency_ms",
               Obj
                 [
                   ("p50", Float (Serve.latency_percentile st 50.));
                   ("p95", Float (Serve.latency_percentile st 95.));
                   ("p99", Float (Serve.latency_percentile st 99.));
                 ] );
           ])
       rows)

(* Competitive ratios on the f_N hard family, driven by the solver
   registry: every heuristic entrant (exact = None) is priced against
   the lattice DP optimum in bits. A new heuristic lands in this table
   by registering — no bench edit needed. *)
let competitive_ratio_check () =
  Printf.printf "\n== competitive ratios on f_N (bits over optimum; registry heuristics) ==\n";
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (fam, omega) ->
          let r = fn_instance ~n ~omega in
          let inst = r.Fn.instance in
          let opt_bits = Logreal.to_log2 (OL.dp inst).OL.cost in
          List.iter
            (fun (e : Solver.entry) ->
              if e.Solver.exact = None then
                match e.Solver.solve_log with
                | None -> ()
                | Some solve ->
                    let bits = Logreal.to_log2 (solve inst).OL.cost -. opt_bits in
                    Printf.printf "  %-8s n=%-3d %-7s +%.2f bits (opt 2^%.1f)\n"
                      e.Solver.name n fam bits opt_bits;
                    rows := (e.Solver.name, n, fam, bits, opt_bits) :: !rows)
            Solver.all)
        [ ("dense", (3 * n) / 4); ("sparse", n / 3) ])
    [ 12; 16; 20 ];
  List.rev !rows

let competitive_json rows =
  let open Obs.Json in
  Arr
    (List.map
       (fun (algo, n, fam, bits, opt_bits) ->
         Obj
           [
             ("algo", Str algo);
             ("n", Int n);
             ("family", Str fam);
             ("ratio_bits", Float bits);
             ("opt_log2", Float opt_bits);
           ])
       rows)

(* Machine-readable mirror of the tables above: schema-versioned, written
   quietly at the repo root so CI can archive it without parsing stdout. *)
let conv_json (vs_rows, beyond_rows) =
  let open Obs.Json in
  let speedup num den = if den > 0.0 then num /. den else Float.nan in
  Obj
    [
      ( "conv_vs_ccp",
        Arr
          (List.map
             (fun (name, n, t_ccp, t_cv, same) ->
               Obj
                 [
                   ("graph", Str name);
                   ("n", Int n);
                   ("ccp_s", Float t_ccp);
                   ("conv_s", Float t_cv);
                   ("speedup", Float (speedup t_ccp t_cv));
                   ("bit_identical", Bool same);
                 ])
             vs_rows) );
      ( "conv_beyond_word",
        Arr
          (List.map
             (fun (name, n, csg, t, log2_cost) ->
               Obj
                 [
                   ("graph", Str name);
                   ("n", Int n);
                   ("connected_subsets", Int csg);
                   ("conv_s", Float t);
                   ("log2_cost", Float log2_cost);
                 ])
             beyond_rows) );
    ]

let write_report ~jobs ~elapsed ~runs ~total ~fails ~dp_rows ~vs_rows ~beyond_rows ~kernels
    ~conv_rows ~serve_row ~serve_conc ~latency_store ~fuzz_row ~competitive ~trace_rows =
  let open Obs.Json in
  let speedup num den = if den > 0.0 then num /. den else Float.nan in
  let report =
    Obj
      [
        ("schema_version", Int 1);
        ("kind", Str "qopt-bench-report");
        ("jobs", Int jobs);
        ( "experiments",
          Arr
            (List.map
               (fun r ->
                 let open Harness.Experiments in
                 Obj
                   [
                     ("name", Str r.name);
                     ("seconds", Float r.seconds);
                     ("checks", Int (List.length r.checks));
                     ( "failures",
                       Int (List.length (List.filter (fun c -> not c.ok) r.checks)) );
                   ])
               runs) );
        ( "totals",
          Obj
            [
              ("checks", Int total);
              ("failures", Int (List.length fails));
              ("seconds", Float elapsed);
            ] );
        ( "parallel_dp",
          Obj
            [
              ("threshold_n", Int OL.dp_parallel_min_n);
              ( "rows",
                Arr
                  (List.map
                     (fun (n, t_seq, t_par, active, same) ->
                       Obj
                         [
                           ("n", Int n);
                           ("seq_s", Float t_seq);
                           ("par_s", Float t_par);
                           ("speedup", Float (speedup t_seq t_par));
                           ("parallel_active", Bool active);
                           ("bit_identical", Bool same);
                         ])
                     dp_rows) );
            ] );
        ( "ccp_vs_lattice",
          Arr
            (List.map
               (fun (name, n, csg, t_lat, t_ccp, same) ->
                 Obj
                   [
                     ("graph", Str name);
                     ("n", Int n);
                     ("connected_subsets", Int csg);
                     ("lattice_s", Float t_lat);
                     ("ccp_s", Float t_ccp);
                     ("speedup", Float (speedup t_lat t_ccp));
                     ("bit_identical", Bool same);
                   ])
               vs_rows) );
        ( "ccp_beyond_lattice",
          Arr
            (List.map
               (fun (name, n, csg, t, log2_cost) ->
                 Obj
                   [
                     ("graph", Str name);
                     ("n", Int n);
                     ("connected_subsets", Int csg);
                     ("ccp_s", Float t);
                     ("log2_cost", Float log2_cost);
                   ])
               beyond_rows) );
        ( "kernels",
          Arr
            (List.map
               (fun (name, time_ns, r2) ->
                 Obj [ ("name", Str name); ("time_ns", Float time_ns); ("r_square", Float r2) ])
               kernels) );
        ("conv", conv_json conv_rows);
        ("competitive_ratio", competitive_json competitive);
        ( "serve",
          (let st, seconds, throughput, byte_identical = serve_row in
           Obj
             [
               ("requests", Int st.Serve.requests);
               ("ok", Int st.Serve.ok);
               ("errors", Int st.Serve.errors);
               ("rejected", Int st.Serve.rejected);
               ("cache_hits", Int st.Serve.cache_hits);
               ("cache_misses", Int st.Serve.cache_misses);
               ("cache_hit_rate", Float (Serve.hit_rate st));
               ("fallbacks", Int st.Serve.fallbacks);
               ("seconds", Float seconds);
               ("requests_per_s", Float throughput);
               ("byte_identical_to_oneshot", Bool byte_identical);
             ]) );
        ( "serve_concurrent",
          (let requests, config, rows = serve_conc in
           serve_concurrent_json ~requests ~config rows) );
        ("trace", trace_json trace_rows);
        ("latency_store", latency_store);
        ( "fuzz",
          (let r, seconds, throughput = fuzz_row in
           Obj
             [
               ("runs", Int r.Fuzz.runs);
               ("checks", Int r.Fuzz.checks);
               ("passes", Int r.Fuzz.passes);
               ("skips", Int r.Fuzz.skips);
               ("failures", Int r.Fuzz.fails);
               ("shrink_steps", Int r.Fuzz.shrink_steps);
               ("seconds", Float seconds);
               ("runs_per_s", Float throughput);
             ]) );
        ( "counters",
          Obj
            (List.filter_map
               (fun (k, v) -> if v = 0 then None else Some (k, Int v))
               (Obs.snapshot ())) );
      ]
  in
  write_file "BENCH_qopt.json" report

(* CI smoke mode: `--serve-concurrent N` runs only a downsampled
   sustained-load check (jobs 1 vs 2), writes a standalone report for
   jq schema checks, and exits 1 on any sequential/concurrent byte
   difference. Kept cheap so it can run on every push. *)
let serve_concurrent_smoke ~requests =
  let mismatches, config, rows =
    serve_concurrent_check ~requests ~jobs_list:[ 1; 2 ]
  in
  let latency_store = latency_store_check () in
  let open Obs.Json in
  let report =
    Obj
      [
        ("schema_version", Int 1);
        ("kind", Str "qopt-serve-concurrent-smoke");
        ("serve_concurrent", serve_concurrent_json ~requests ~config rows);
        ("latency_store", latency_store);
      ]
  in
  write_file "serve-concurrent-smoke.json" report;
  Printf.printf "\nwrote serve-concurrent-smoke.json (%d byte mismatch(es))\n" mismatches;
  exit (if mismatches > 0 then 1 else 0)

(* CI smoke mode: `--conv` runs only the conv-vs-ccp check (downsampled
   via jobs=2), writes a standalone report for jq schema checks, and
   exits 1 on any bit-identity or sequence-length violation. *)
let conv_smoke () =
  let mismatches, vs_rows, beyond_rows = conv_check ~jobs:2 in
  let open Obs.Json in
  let report =
    Obj
      [
        ("schema_version", Int 1);
        ("kind", Str "qopt-conv-smoke");
        ("conv", conv_json (vs_rows, beyond_rows));
      ]
  in
  write_file "conv-smoke.json" report;
  Printf.printf "\nwrote conv-smoke.json (%d mismatch(es))\n" mismatches;
  exit (if mismatches > 0 then 1 else 0)

let () =
  let rec smoke_scan = function
    | "--serve-concurrent" :: v :: _ -> int_of_string_opt v
    | _ :: rest -> smoke_scan rest
    | [] -> None
  in
  (match smoke_scan (Array.to_list Sys.argv) with
  | Some n when n >= 1 -> serve_concurrent_smoke ~requests:n
  | Some _ | None -> ());
  if Array.exists (fun a -> a = "--conv") Sys.argv then conv_smoke ();
  let jobs =
    let rec scan = function
      | "--jobs" :: v :: _ | "-j" :: v :: _ -> int_of_string_opt v
      | _ :: rest -> scan rest
      | [] -> None
    in
    match scan (Array.to_list Sys.argv) with
    | Some j when j >= 1 -> j
    | Some _ -> Pool.recommended_jobs ()  (* --jobs 0: auto *)
    | None -> ( match Pool.env_jobs () with Some j -> j | None -> 1)
  in
  print_endline "=====================================================================";
  print_endline " Reproduction: 'On the Complexity of Approximate Query Optimization'";
  print_endline " Experiment tables E1..E10 (see EXPERIMENTS.md for the index)";
  print_endline "=====================================================================\n";
  Printf.printf "(experiment harness running with --jobs %d; set QOPT_JOBS to override)\n\n" jobs;
  let (runs, total, fails), elapsed =
    Obs.time (fun () ->
        let runs = Harness.Experiments.run_all ~jobs () in
        let results =
          List.map (fun r -> (r.Harness.Experiments.name, r.Harness.Experiments.checks)) runs
        in
        let total = List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 results in
        let fails = Harness.Experiments.failures results in
        Printf.printf "\n== Wall-clock per experiment (jobs=%d) ==\n" jobs;
        List.iter
          (fun r ->
            Printf.printf "  %-4s %8.2fs  (%d checks)\n" r.Harness.Experiments.name
              r.Harness.Experiments.seconds
              (List.length r.Harness.Experiments.checks))
          runs;
        (runs, total, fails))
  in
  Printf.printf "\n== Check summary: %d checks, %d failures (%.1fs) ==\n" total
    (List.length fails) elapsed;
  List.iter
    (fun (e, c) ->
      Printf.printf "  FAIL %s: %s (%s)\n" e c.Harness.Experiments.label
        c.Harness.Experiments.detail)
    fails;
  let dp_mismatches, dp_rows = parallel_dp_check ~jobs:(Stdlib.max jobs 2) in
  let ccp_mismatches, vs_rows, beyond_rows = ccp_dp_check ~jobs:(Stdlib.max jobs 2) in
  let conv_mismatches, conv_vs_rows, conv_beyond_rows = conv_check ~jobs:(Stdlib.max jobs 2) in
  let serve_mismatches, serve_st, serve_s, serve_tput, serve_ident = serve_workload_check () in
  let conc_requests = 100_000 in
  let conc_mismatches, conc_config, conc_rows =
    serve_concurrent_check ~requests:conc_requests ~jobs_list:[ 1; 2; 4 ]
  in
  let latency_store_row = latency_store_check () in
  let trace_violations, trace_rows = trace_skew_check () in
  let fuzz_fails, fuzz_r, fuzz_s, fuzz_tput = fuzz_campaign_check ~jobs:(Stdlib.max jobs 2) in
  let competitive = competitive_ratio_check () in
  let kernels = run_benchmarks () in
  scaling_series ();
  write_report ~jobs ~elapsed ~runs ~total ~fails ~dp_rows ~vs_rows ~beyond_rows ~kernels
    ~conv_rows:(conv_vs_rows, conv_beyond_rows)
    ~serve_row:(serve_st, serve_s, serve_tput, serve_ident)
    ~serve_conc:(conc_requests, conc_config, conc_rows)
    ~latency_store:latency_store_row
    ~fuzz_row:(fuzz_r, fuzz_s, fuzz_tput)
    ~competitive ~trace_rows;
  if
    fails <> [] || dp_mismatches > 0 || ccp_mismatches > 0 || conv_mismatches > 0
    || serve_mismatches > 0 || conc_mismatches > 0 || fuzz_fails > 0
    || trace_violations > 0
  then exit 1
