(** Join-sequence optimizers for [QO_N].

    - {!Make.exhaustive}: all permutations with branch-and-bound
      pruning — ground truth for tiny instances;
    - {!Make.dp}: exact dynamic program over the subset lattice. The
      intermediate size [N(X)] depends only on the {e set} [X] (product
      of member sizes and internal selectivities), so the cheapest
      sequence ending in set [S] decomposes over the last vertex —
      the DP is provably equivalent to full enumeration, in
      [O(2^n n^2)];
    - {!Make.dp_no_cartesian}: same, restricted to sequences whose
      every join has at least one predicate (the variant discussed at
      the end of Section 4);
    - {!Make.greedy}, {!Make.iterative_improvement},
      {!Make.simulated_annealing}: classical polynomial-time baselines
      whose competitive ratios experiment E9 measures against the
      hardness prediction.

    {b The exact transition.} The lattice DP and both {!Ccp} kernels
    settle every subset [S] through one helper, {!Make.argmin}, over the
    same table layout ({!Make.table}). Two things make it cheap without
    changing a single plan bit:

    - {e Ranked [min_w].} Each row [w.(j)] is sorted once per solve,
      ascending by [(value, index)] with a stable sort ({!Make.rank_w}).
      The minimum of [w.(j).(k)] over [S \ {j}] is the entry of the
      first ranked [k] in the set: integer mask tests instead of a
      [C.compare] scan, and among equal values still the lowest index.
    - {e A float filter in front of the exact argmin} (domains with a
      {!Cost.S.approx}, i.e. the rationals). Pass 1 computes a float
      approximation [dpf(R) + sizef(R) * wf(j,k)] of every candidate
      and their minimum [lo]; pass 2 walks the candidates in the usual
      ascending order with the usual strict-[<] rule, but evaluates
      exactly only those whose approximation is [<= lo * (1 + 1e-9)].
      Soundness: [Bigq.to_float] errs by less than [4 * 2^-53]
      relative on normal floats; one product and one sum of
      non-negative terms keep each candidate's approximation [a]
      within [d = 16 * 2^-53] of its exact cost [x]. A skipped
      candidate has [x >= a / (1 + d) > lo (1 + 1e-9) / (1 + d)], and
      the exact minimum is at most [lo / (1 - d)]. As
      [(1 + 1e-9)(1 - d) > 1 + d] ([1e-9] dwarfs [2d ~ 3.6e-15]), every
      skipped candidate is strictly greater than the exact minimum, so
      the winner and the tie-break among exact equals are those of the
      all-exact scan (rounding [lo * (1 + 1e-9)] itself costs a few
      [2^-53], lost in that slack). The bound needs normal floats: a
      subset with a non-finite approximation (past [2^1024]), a NaN
      one (a value below [Float.min_float]) or a product
      [sizef * wf] that underflows takes the all-exact scan.
      [opt.dp.transitions] still counts every admissible candidate;
      [opt.dp.exact_evals] counts the exact evaluations. *)

(* Shared across every [Make] application (the functor is applied once
   per cost domain in [Instances] and again inside [Ccp.Make]);
   [Obs.counter] is idempotent by name so they all hit the same
   counters. *)
let c_dp_runs = Obs.counter "opt.dp.runs"
let c_dp_subsets = Obs.counter "opt.dp.subsets"
let c_dp_transitions = Obs.counter "opt.dp.transitions"
let c_dp_exact_evals = Obs.counter "opt.dp.exact_evals"

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)

  type plan = { cost : C.t; seq : int array }

  let eval inst seq = { cost = I.cost inst seq; seq }

  (* ------------------------------------------------------------- *)

  let max_exhaustive_n = 11

  (** Branch-and-bound over all permutations. Exact.
      @raise Invalid_argument above {!max_exhaustive_n} vertices. *)
  let exhaustive (inst : I.t) =
    let n = I.n inst in
    if n > max_exhaustive_n then
      invalid_arg (Printf.sprintf "Opt.exhaustive: n=%d too large (max %d)" n max_exhaustive_n);
    if n = 0 then invalid_arg "Opt.exhaustive: empty instance";
    let open Graphlib in
    let best_cost = ref C.infinity in
    let best_seq = ref (Array.init n (fun i -> i)) in
    let seq = Array.make n (-1) in
    let x = Bitset.create n in
    (* depth d: filled positions 0..d-1; partial = cost so far; size = N(prefix) *)
    let rec go d partial size =
      if C.compare partial !best_cost >= 0 then ()
      else if d = n then begin
        best_cost := partial;
        best_seq := Array.copy seq
      end
      else
        for v = 0 to n - 1 do
          if not (Bitset.mem x v) then begin
            let partial', size' =
              if d = 0 then (partial, inst.I.sizes.(v))
              else begin
                let h = C.mul size (I.min_w inst x v) in
                let s = ref (C.mul size inst.I.sizes.(v)) in
                Bitset.iter
                  (fun k -> if Bitset.mem x k then s := C.mul !s inst.I.sel.(v).(k))
                  (Ugraph.neighbors inst.I.graph v);
                (C.add partial h, !s)
              end
            in
            seq.(d) <- v;
            Bitset.add x v;
            go (d + 1) partial' size';
            Bitset.remove x v
          end
        done
    in
    go 0 C.zero C.one;
    { cost = !best_cost; seq = !best_seq }

  (* ------------------------------------------------------------- *)

  (* ------------------------------------------------------------- *)
  (* The exact transition shared by the lattice DP and both {!Ccp}
     kernels: one table layout, one ranked [min_w], one filtered
     argmin. *)

  (** [rank_w w] orders each row [w.(j)] once: [rank.(j)] lists every
      [k <> j] ascending by [(w.(j).(k), k)] (a stable sort over
      ascending [k]). The minimum of [w.(j).(k)] over a set [S] not
      containing [j] is then [w.(j).(k)] for the first [k] of
      [rank.(j)] in [S]: the same value and, among equal values, the
      same lowest index as a strict-[<] scan of [S] in ascending order. *)
  let rank_w (w : C.t array array) =
    let n = Array.length w in
    Array.init n (fun j ->
        let row = w.(j) in
        let ks = Array.init (n - 1) (fun x -> if x < j then x else x + 1) in
        Array.stable_sort (fun a b -> C.compare row.(a) row.(b)) ks;
        ks)

  (** First entry of [rank] with its bit set in the int mask [s]
      ([s] must meet [rank]). *)
  let first_in_mask (rank : int array) s =
    let x = ref 0 in
    while s land (1 lsl rank.(!x)) = 0 do
      incr x
    done;
    rank.(!x)

  let approx = match C.approx with Some f -> f | None -> fun _ -> Float.nan

  (** Per-run DP table, indexed by lattice mask or compact csg index.
      [dpf]/[sizef]/[wf] are the float shadows the filter reads
      ({!Cost.S.approx}); they are empty when the domain has none. *)
  type table = {
    dp : C.t array;
    parent : int array;
    sizes : C.t array;
    w : C.t array array;
    rank : int array array;
    dpf : float array;
    sizef : float array;
    wf : float array array;
    evals : Obs.counter;
  }

  let make_table ~entries ~evals (inst : I.t) =
    let shadow = Option.is_some C.approx in
    {
      dp = Array.make entries C.infinity;
      parent = Array.make entries (-1);
      sizes = Array.make entries C.one;
      w = inst.I.w;
      rank = rank_w inst.I.w;
      dpf = (if shadow then Array.make entries Float.nan else [||]);
      sizef = (if shadow then Array.make entries (approx C.one) else [||]);
      wf = (if shadow then Array.map (Array.map approx) inst.I.w else [||]);
      evals;
    }

  let filtered t = Array.length t.dpf > 0

  let set_size t i v =
    t.sizes.(i) <- v;
    if filtered t then t.sizef.(i) <- approx v

  (* entry [i] is the singleton [{v}] *)
  let set_singleton t i v =
    t.dp.(i) <- C.zero;
    t.parent.(i) <- v;
    if filtered t then t.dpf.(i) <- 0.0

  (** A candidate of a transition: last vertex [j], the table index
      [ri] of [S \ {j}], and [k], the ranked argmin of [w.(j)] over
      [S \ {j}], packed in one int ([j], [k] < 256 = [Ccp.max_ccp_n]). *)
  let cand ~ri ~j ~k = (ri lsl 16) lor (j lsl 8) lor k

  (* Relative tolerance of the filter; see [argmin]. *)
  let filter_margin = 1e-9

  let eval_exact t i c =
    let ri = c lsr 16 and j = (c lsr 8) land 0xff in
    let x = C.add t.dp.(ri) (C.mul t.sizes.(ri) t.w.(j).(c land 0xff)) in
    if C.compare x t.dp.(i) < 0 then begin
      t.dp.(i) <- x;
      t.parent.(i) <- j
    end

  (** [argmin t i buf m] settles entry [i] from its [m] admissible
      candidates [buf.(0 .. m-1)] (built by {!cand}, ascending in [j]):
      the first candidate, in that order, of least exact cost
      [dp(R) + N(R) * w(j,k)] becomes [dp.(i)] / [parent.(i)]. Without
      a float shadow every candidate is evaluated exactly; with one,
      the two-pass filter of the module header skips the candidates
      whose approximation exceeds [lo * (1 + filter_margin)], and a
      non-finite, NaN or underflowed approximation sends the whole
      subset to the all-exact scan. *)
  let argmin t i buf m =
    (* pass 1: [thr = lo * (1 + margin)], or [nan] for the all-exact scan *)
    let thr =
      if not (filtered t) then Float.nan
      else begin
        let lo = ref Float.infinity and x = ref 0 in
        while !x < m do
          let c = buf.(!x) in
          let ri = c lsr 16 in
          let p = t.sizef.(ri) *. t.wf.((c lsr 8) land 0xff).(c land 0xff) in
          let a = t.dpf.(ri) +. p in
          if p >= Float.min_float && a < Float.infinity then begin
            if a < !lo then lo := a;
            incr x
          end
          else begin
            lo := Float.nan;
            x := m
          end
        done;
        !lo *. (1.0 +. filter_margin)
      end
    in
    (* pass 2: the exact strict-[<] scan over the survivors *)
    let evals = ref 0 in
    for x = 0 to m - 1 do
      let c = buf.(x) in
      let ri = c lsr 16 in
      if
        Float.is_nan thr
        || t.dpf.(ri) +. (t.sizef.(ri) *. t.wf.((c lsr 8) land 0xff).(c land 0xff)) <= thr
      then begin
        incr evals;
        eval_exact t i c
      end
    done;
    if filtered t then t.dpf.(i) <- approx t.dp.(i);
    Obs.add t.evals !evals

  (* ------------------------------------------------------------- *)

  let max_dp_n = 23

  (* The subset-lattice DP, sequential or layer-parallel.

     Both paths call the same per-subset transition functions below, so
     the parallel result is structurally bit-identical to the
     sequential one: [sizes.(s)] and [dp.(s)] depend only on strict
     subsets of [s] (one fewer bit), every write goes to its own slot,
     and the candidate iteration order inside one subset never changes.
     The sequential loop visits masks in increasing numeric order, the
     parallel one in popcount layers; both respect the dependency
     order. Property-tested against each other in [test/test_qo.ml]. *)
  (* Work threshold for the layer-parallel path. Below it the per-layer
     fan-out/join overhead exceeds the work it spreads — measured 0.60x
     sequential at n=16 and 0.96x at n=18 (parallel_dp rows in
     BENCH_qopt.json) — so small instances run the sequential loop even
     when a pool is supplied. Results are bit-identical either way; only
     wall-clock changes. *)
  let dp_parallel_min_n = 19

  let dp_generic ?pool ~no_cartesian (inst : I.t) =
    let n = I.n inst in
    if n > max_dp_n then
      invalid_arg (Printf.sprintf "Opt.dp: n=%d too large (max %d)" n max_dp_n);
    if n = 0 then invalid_arg "Opt.dp: empty instance";
    Obs.span (if no_cartesian then "opt.dp_no_cartesian" else "opt.dp") @@ fun () ->
    let full = (1 lsl n) - 1 in
    Obs.incr c_dp_runs;
    Obs.add c_dp_subsets (full + 1);
    let graph = inst.I.graph in
    (* adjacency as int masks for speed *)
    let adj = Array.make n 0 in
    for v = 0 to n - 1 do
      Graphlib.Bitset.iter (fun u -> adj.(v) <- adj.(v) lor (1 lsl u)) (Graphlib.Ugraph.neighbors graph v)
    done;
    let lowest_bit m = m land -m in
    (* index of a single set bit: trailing-zero count by halving *)
    let bit_index b =
      let i = ref 0 and v = ref b in
      while !v land 1 = 0 do
        incr i;
        v := !v lsr 1
      done;
      !i
    in
    let t = make_table ~entries:(full + 1) ~evals:c_dp_exact_evals inst in
    (* N(S) for every subset *)
    let fill_size s =
      let b = lowest_bit s in
      let v = bit_index b in
      let rest = s lxor b in
      let acc = ref (C.mul t.sizes.(rest) inst.I.sizes.(v)) in
      let common = ref (rest land adj.(v)) in
      let row = inst.I.sel.(v) in
      while !common <> 0 do
        let ub = lowest_bit !common in
        acc := C.mul !acc row.(bit_index ub);
        common := !common lxor ub
      done;
      set_size t s !acc
    in
    for v = 0 to n - 1 do
      set_singleton t (1 lsl v) v
    done;
    (* transition for a subset with >= 2 elements; [buf] holds its
       admissible candidates *)
    let fill_dp buf s =
      let m = ref s in
      let trans = ref 0 in
      while !m <> 0 do
        let b = lowest_bit !m in
        let j = bit_index b in
        let rest = s lxor b in
        let allowed = (not no_cartesian) || rest land adj.(j) <> 0 in
        if allowed && C.is_finite t.dp.(rest) then begin
          buf.(!trans) <- cand ~ri:rest ~j ~k:(first_in_mask t.rank.(j) rest);
          incr trans
        end;
        m := !m lxor b
      done;
      Obs.add c_dp_transitions !trans;
      argmin t s buf !trans
    in
    (match pool with
    | Some pool when Pool.jobs pool > 1 && n >= dp_parallel_min_n ->
        (* sort masks by popcount once (counting sort); each layer is
           embarrassingly parallel given the previous one *)
        let popcount m =
          let c = ref 0 and v = ref m in
          while !v <> 0 do
            incr c;
            v := !v land (!v - 1)
          done;
          !c
        in
        let off = Array.make (n + 2) 0 in
        for s = 0 to full do
          let k = popcount s in
          off.(k + 1) <- off.(k + 1) + 1
        done;
        for k = 1 to n + 1 do
          off.(k) <- off.(k) + off.(k - 1)
        done;
        let cursor = Array.copy off in
        let by_layer = Array.make (full + 1) 0 in
        for s = 0 to full do
          let k = popcount s in
          by_layer.(cursor.(k)) <- s;
          cursor.(k) <- cursor.(k) + 1
        done;
        for k = 1 to n do
          Pool.parallel_for pool ~lo:off.(k) ~hi:(off.(k + 1) - 1) (fun idx ->
              fill_size by_layer.(idx))
        done;
        for k = 2 to n do
          let layer () =
            Pool.parallel_for pool ~lo:off.(k) ~hi:(off.(k + 1) - 1) (fun idx ->
                fill_dp (Array.make n 0) by_layer.(idx))
          in
          (* dynamic name: only pay the sprintf when spans record *)
          if Obs.enabled () then Obs.span ("opt.dp.layer." ^ string_of_int k) layer
          else layer ()
        done
    | _ ->
        for s = 1 to full do
          fill_size s
        done;
        let buf = Array.make n 0 in
        for s = 1 to full do
          (* only consider subsets with >= 2 elements *)
          if s land (s - 1) <> 0 then fill_dp buf s
        done);
    (* reconstruct *)
    if not (C.is_finite t.dp.(full)) then { cost = C.infinity; seq = [||] }
    else begin
      let seq = Array.make n (-1) in
      let s = ref full in
      for pos = n - 1 downto 0 do
        let j = t.parent.(!s) in
        seq.(pos) <- j;
        s := !s lxor (1 lsl j)
      done;
      { cost = t.dp.(full); seq }
    end

  (** Exact optimum by subset DP. With [?pool] (and more than one
      job) the lattice is evaluated popcount-layer by popcount-layer in
      parallel; the result is bit-identical to the sequential path. *)
  let dp ?pool inst = dp_generic ?pool ~no_cartesian:false inst

  (** Exact optimum over cartesian-product-free sequences; cost is
      [C.infinity] (empty sequence) when none exists. *)
  let dp_no_cartesian ?pool inst = dp_generic ?pool ~no_cartesian:true inst

  (* ------------------------------------------------------------- *)

  type greedy_mode =
    | Min_cost  (** pick the next vertex with the cheapest join [H] *)
    | Min_size  (** pick the next vertex minimizing the intermediate [N] *)

  (** Polynomial-time greedy construction; tries the first [starts]
      starting vertices (default: all) and keeps the best sequence.
      [O(starts * n^2)]. *)
  let greedy ?(mode = Min_cost) ?starts (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.greedy: empty instance";
    let starts = match starts with None -> n | Some s -> Stdlib.max 1 (Stdlib.min s n) in
    let open Graphlib in
    let run start =
      let seq = Array.make n (-1) in
      seq.(0) <- start;
      let x = Bitset.create n in
      Bitset.add x start;
      let size = ref inst.I.sizes.(start) in
      let total = ref C.zero in
      for d = 1 to n - 1 do
        let best_v = ref (-1) and best_key = ref C.infinity and best_h = ref C.infinity in
        for v = 0 to n - 1 do
          if not (Bitset.mem x v) then begin
            let h = C.mul !size (I.min_w inst x v) in
            let s = ref (C.mul !size inst.I.sizes.(v)) in
            Bitset.iter
              (fun k -> if Bitset.mem x k then s := C.mul !s inst.I.sel.(v).(k))
              (Ugraph.neighbors inst.I.graph v);
            let key = match mode with Min_cost -> h | Min_size -> !s in
            if C.compare key !best_key < 0 then begin
              best_key := key;
              best_v := v;
              best_h := h
            end
          end
        done;
        let v = !best_v in
        seq.(d) <- v;
        total := C.add !total !best_h;
        let s = ref (C.mul !size inst.I.sizes.(v)) in
        Bitset.iter
          (fun k -> if Bitset.mem x k then s := C.mul !s inst.I.sel.(v).(k))
          (Ugraph.neighbors inst.I.graph v);
        size := !s;
        Bitset.add x v
      done;
      { cost = !total; seq }
    in
    let best = ref (run 0) in
    for start = 1 to starts - 1 do
      let p = run start in
      if C.compare p.cost !best.cost < 0 then best := p
    done;
    !best

  (* ------------------------------------------------------------- *)

  let random_perm st n =
    let a = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    a

  let apply_swap seq i j =
    let tmp = seq.(i) in
    seq.(i) <- seq.(j);
    seq.(j) <- tmp

  (** [apply_move seq i j] removes [seq.(i)] and reinserts it at
      position [j], shifting the elements in between — the "move"
      neighborhood step of {!iterative_improvement}. In place; the
      inverse of [apply_move seq i j] is [apply_move seq j i]. *)
  let apply_move seq i j =
    if i <> j then begin
      let v = seq.(i) in
      if i < j then Array.blit seq (i + 1) seq i (j - i)
      else Array.blit seq j seq (j + 1) (i - j);
      seq.(j) <- v
    end

  (** Random-restart local search over swap and move neighborhoods:
      each step draws positions [(i, j)] and either swaps them or
      removes the element at [i] and reinserts it at [j] (a
      remove-and-reinsert no single swap can express — it shifts the
      whole block in between). Deterministic in [seed]. *)
  let iterative_improvement ?(seed = 0) ?(restarts = 10) ?(max_steps = 2000) (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.iterative_improvement: empty instance";
    let st = Random.State.make [| seed; n; 17 |] in
    let best = ref None in
    for _r = 1 to restarts do
      let seq = random_perm st n in
      let cur = ref (I.cost inst seq) in
      let stale = ref 0 in
      let steps = ref 0 in
      while !stale < n * n && !steps < max_steps do
        incr steps;
        let i = Random.State.int st n and j = Random.State.int st n in
        if i <> j then begin
          let move = Random.State.bool st in
          if move then apply_move seq i j else apply_swap seq i j;
          let c = I.cost inst seq in
          if C.compare c !cur < 0 then begin
            cur := c;
            stale := 0
          end
          else begin
            (* revert *)
            if move then apply_move seq j i else apply_swap seq i j;
            incr stale
          end
        end
      done;
      match !best with
      | Some b when C.compare b.cost !cur <= 0 -> ()
      | _ -> best := Some { cost = !cur; seq = Array.copy seq }
    done;
    Option.get !best

  (** Genetic algorithm over join sequences: tournament selection,
      order crossover (OX), swap mutation, elitism of one. A classical
      randomized baseline for experiment E9. *)
  let genetic ?(seed = 0) ?(population = 40) ?(generations = 120) ?(mutation = 0.3)
      (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.genetic: empty instance";
    let st = Random.State.make [| seed; n; 29 |] in
    let fitness = Array.make population C.infinity in
    let pop = Array.init population (fun _ -> random_perm st n) in
    let evaluate i = fitness.(i) <- I.cost inst pop.(i) in
    for i = 0 to population - 1 do
      evaluate i
    done;
    let best_seq = ref (Array.copy pop.(0)) in
    let best_cost = ref fitness.(0) in
    let record i =
      if C.compare fitness.(i) !best_cost < 0 then begin
        best_cost := fitness.(i);
        best_seq := Array.copy pop.(i)
      end
    in
    for i = 0 to population - 1 do
      record i
    done;
    (* order crossover: copy a slice from parent a, fill the rest in
       parent b's order *)
    let crossover a b =
      let lo = Random.State.int st n in
      let hi = lo + Random.State.int st (n - lo) in
      let child = Array.make n (-1) in
      let used = Array.make n false in
      for i = lo to hi do
        child.(i) <- a.(i);
        used.(a.(i)) <- true
      done;
      let pos = ref 0 in
      Array.iter
        (fun v ->
          if not used.(v) then begin
            while !pos >= lo && !pos <= hi do
              incr pos
            done;
            child.(!pos) <- v;
            incr pos
          end)
        b;
      child
    in
    let tournament () =
      let a = Random.State.int st population and b = Random.State.int st population in
      if C.compare fitness.(a) fitness.(b) <= 0 then a else b
    in
    for _g = 1 to generations do
      let next = Array.make population [||] in
      (* elitism: carry the best individual over *)
      next.(0) <- Array.copy !best_seq;
      for i = 1 to population - 1 do
        let a = pop.(tournament ()) and b = pop.(tournament ()) in
        let child = crossover a b in
        if Random.State.float st 1.0 < mutation then begin
          let x = Random.State.int st n and y = Random.State.int st n in
          let tmp = child.(x) in
          child.(x) <- child.(y);
          child.(y) <- tmp
        end;
        next.(i) <- child
      done;
      Array.blit next 0 pop 0 population;
      for i = 0 to population - 1 do
        evaluate i;
        record i
      done
    done;
    { cost = !best_cost; seq = !best_seq }

  (** Simulated annealing on the swap neighborhood. The Metropolis
      criterion runs on [log2] costs (the costs themselves can have
      thousands of bits). *)
  let simulated_annealing ?(seed = 0) ?(steps = 20_000) ?(t0 = 50.0) ?(alpha = 0.999)
      (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.simulated_annealing: empty instance";
    let st = Random.State.make [| seed; n; 23 |] in
    let seq = random_perm st n in
    let cur = ref (I.cost inst seq) in
    let best_cost = ref !cur in
    let best_seq = ref (Array.copy seq) in
    let temp = ref t0 in
    for _s = 1 to steps do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i <> j then begin
        let tmp = seq.(i) in
        seq.(i) <- seq.(j);
        seq.(j) <- tmp;
        let c = I.cost inst seq in
        let accept =
          C.compare c !cur <= 0
          ||
          let d = C.to_log2 c -. C.to_log2 !cur in
          Random.State.float st 1.0 < Float.exp (-.d /. !temp)
        in
        if accept then begin
          cur := c;
          if C.compare c !best_cost < 0 then begin
            best_cost := c;
            best_seq := Array.copy seq
          end
        end
        else begin
          let tmp = seq.(i) in
          seq.(i) <- seq.(j);
          seq.(j) <- tmp
        end
      end;
      temp := !temp *. alpha
    done;
    { cost = !best_cost; seq = !best_seq }
end
