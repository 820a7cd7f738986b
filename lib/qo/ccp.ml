(** Connected-subgraph dynamic programming for [QO_N] — the sparse-graph
    companion of {!Opt.Make.dp_no_cartesian}.

    The lattice DP walks all [2^n] subsets even though a
    cartesian-product-free join sequence only ever realises {e connected}
    subsets of the query graph: every feasible prefix is connected, and
    [dp S] is finite exactly when [S] induces a connected subgraph. On a
    chain there are [n(n+1)/2] such subsets, on a tree [O(n^2)]-ish, on
    bounded-degree graphs exponentially fewer than [2^n] — precisely the
    instances the paper's sparse theorems (16, 17) generate.

    This module enumerates connected subsets once each, DPccp-style
    (Moerkotte–Neumann: neighborhood-restricted expansion with forbidden
    sets), keeps [dp]/[sizes] entries only for them in a compact
    hash-indexed table, and maintains each subset's neighborhood mask
    incrementally from its parent instead of rescanning all [n] bits.

    {b Equivalence guarantee.} {!Make.dp_connected} is {e bit-identical}
    to {!Opt.Make.dp_no_cartesian} (cost and sequence) in both cost
    domains: the intermediate sizes [N(S)] are evaluated with the exact
    same lowest-bit-first multiplication order as the lattice
    [fill_size], the candidate last-vertices of a subset are collected
    in the same ascending order, with the same ranked [min_w], and
    settled by the lattice's own {!Opt.Make.argmin} (ranked [min_w],
    float filter, strict-improvement rule — see {!Opt}), and a subset
    [S \ {j}] contributes a candidate iff it is connected — which is
    exactly when the lattice's [dp] entry for it is finite.
    [ccp.dp.transitions] counts those candidates, [ccp.dp.exact_evals]
    the ones the filter let through to exact arithmetic.
    Property-tested against the lattice in [test/test_qo.ml]. *)

(* Shared across [Make] applications; [subsets_enumerated] counts the
   table entries of [dp_connected] only — [csg_count] is a pure query
   (the CLI calls both on the same instance and must report the subset
   count once). *)
let c_runs = Obs.counter "ccp.dp.runs"
let c_subsets = Obs.counter "ccp.dp.subsets_enumerated"
let c_transitions = Obs.counter "ccp.dp.transitions"
let c_exact_evals = Obs.counter "ccp.dp.exact_evals"
let g_table = Obs.gauge "ccp.dp.table_entries"
let g_idx_buckets = Obs.gauge "ccp.dp.idx_buckets"
let g_idx_max_bucket = Obs.gauge "ccp.dp.idx_max_bucket"
let g_size_memo = Obs.gauge "ccp.dp.size_memo_entries"

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)
  module O = Opt.Make (C)

  (* Fast path: masks as single OCaml ints (63-bit), one spare bit for
     the [1 lsl (v + 1)] forbidden-prefix arithmetic. Beyond that the
     multi-word [Graphlib.Bitset] path takes over (same algorithm, same
     transition order) up to [max_ccp_n]. *)
  let max_ccp_word_n = 61
  let max_ccp_n = 256

  let lowest_bit m = m land -m

  (* index of a single set bit: trailing-zero count by halving (same
     routine as the lattice DP, so the scan costs match) *)
  let bit_index b =
    let i = ref 0 and v = ref b in
    while !v land 1 = 0 do
      incr i;
      v := !v lsr 1
    done;
    !i

  let adjacency_masks (inst : I.t) n =
    let adj = Array.make n 0 in
    for v = 0 to n - 1 do
      Graphlib.Bitset.iter
        (fun u -> adj.(v) <- adj.(v) lor (1 lsl u))
        (Graphlib.Ugraph.neighbors inst.I.graph v)
    done;
    adj

  (* DPccp-style EnumerateCsg: call [emit] exactly once per connected
     subset of the graph given by [adj]. Start points are visited from
     the highest vertex down; the forbidden set of start [v] is
     [{0..v}], so every connected set is generated only from its
     minimum vertex. The recursion extends a set [s] by every nonempty
     subset of its neighborhood outside the forbidden set, then forbids
     that whole neighborhood — the Moerkotte–Neumann argument makes
     each (set, extension) pair unique. The neighborhood mask [nbr]
     (i.e. [N(s) \ s]) travels through the recursion and is updated
     incrementally from the parent's. *)
  let enumerate_csg ~n ~(adj : int array) emit =
    let rec expand s x nbr =
      let cand = nbr land lnot x in
      if cand <> 0 then begin
        let x' = x lor cand in
        let sub = ref cand in
        while !sub <> 0 do
          let s' = s lor !sub in
          emit s';
          (* neighborhood of s' incrementally: add the adjacency of the
             new vertices, drop members of s' *)
          let add = ref 0 and m = ref !sub in
          while !m <> 0 do
            let b = lowest_bit !m in
            add := !add lor adj.(bit_index b);
            m := !m lxor b
          done;
          expand s' x' ((nbr lor !add) land lnot s');
          sub := (!sub - 1) land cand
        done
      end
    in
    for v = n - 1 downto 0 do
      let s = 1 lsl v in
      emit s;
      expand s ((1 lsl (v + 1)) - 1) (adj.(v) land lnot s)
    done

  let popcount m =
    let c = ref 0 and v = ref m in
    while !v <> 0 do
      incr c;
      v := !v land (!v - 1)
    done;
    !c

  (* All connected subsets grouped by cardinality (layer [k] holds the
     k-subsets, sorted ascending for determinism and locality). *)
  let connected_layers ~n ~adj =
    let acc = ref [] and count = ref 0 in
    enumerate_csg ~n ~adj (fun s ->
        acc := s :: !acc;
        incr count);
    let per_layer = Array.make (n + 1) 0 in
    List.iter (fun s -> per_layer.(popcount s) <- per_layer.(popcount s) + 1) !acc;
    let layers = Array.init (n + 1) (fun k -> Array.make per_layer.(k) 0) in
    let cursor = Array.make (n + 1) 0 in
    List.iter
      (fun s ->
        let k = popcount s in
        layers.(k).(cursor.(k)) <- s;
        cursor.(k) <- cursor.(k) + 1)
      !acc;
    Array.iter (fun layer -> Array.sort compare layer) layers;
    (layers, !count)

  exception Enough

  (* ---------------- multi-word (Bitset) path ---------------- *)

  module BS = Graphlib.Bitset

  module BH = Hashtbl.Make (struct
    type t = BS.t

    let equal = BS.equal
    let hash = BS.hash
  end)

  let adjacency_sets (inst : I.t) n =
    Array.init n (fun v ->
        let s = BS.create n in
        BS.iter (fun u -> BS.add s u) (Graphlib.Ugraph.neighbors inst.I.graph v);
        s)

  (* EnumerateCsg over multi-word sets: the exact algorithm of
     [enumerate_csg], with the subset walk [(sub - 1) land cand]
     generalised by [BS.decr_and] and the forbidden prefix
     [(1 lsl (v + 1)) - 1] by [BS.prefix]. [emit] receives a scratch
     set it must not retain without copying. *)
  let enumerate_csg_words ~n ~(adj : BS.t array) emit =
    let rec expand s x nbr =
      let cand = BS.diff nbr x in
      if not (BS.is_empty cand) then begin
        let x' = BS.union x cand in
        let sub = BS.copy cand in
        let continue = ref true in
        while !continue do
          let s' = BS.union s sub in
          emit s';
          (* neighborhood of s' incrementally: add the adjacency of the
             new vertices, drop members of s' *)
          let nbr' = BS.copy nbr in
          BS.iter (fun v -> BS.union_into ~dst:nbr' nbr' adj.(v)) sub;
          BS.diff_into ~dst:nbr' nbr' s';
          expand s' x' nbr';
          BS.decr_and sub cand;
          if BS.is_empty sub then continue := false
        done
      end
    in
    for v = n - 1 downto 0 do
      let s = BS.create n in
      BS.add s v;
      emit s;
      expand s (BS.prefix n (v + 1)) (BS.diff adj.(v) s)
    done

  let connected_layers_words ~n ~adj =
    let acc = ref [] and count = ref 0 in
    enumerate_csg_words ~n ~adj (fun s ->
        acc := BS.copy s :: !acc;
        incr count);
    let per_layer = Array.make (n + 1) 0 in
    List.iter (fun s -> per_layer.(BS.cardinal s) <- per_layer.(BS.cardinal s) + 1) !acc;
    let layers = Array.init (n + 1) (fun k -> Array.make per_layer.(k) (BS.create 0)) in
    let cursor = Array.make (n + 1) 0 in
    List.iter
      (fun s ->
        let k = BS.cardinal s in
        layers.(k).(cursor.(k)) <- s;
        cursor.(k) <- cursor.(k) + 1)
      !acc;
    Array.iter (fun layer -> Array.sort BS.compare layer) layers;
    (layers, !count)

  let csg_count_words (inst : I.t) n =
    let adj = adjacency_sets inst n in
    let count = ref 0 in
    enumerate_csg_words ~n ~adj (fun _ -> incr count);
    !count

  let csg_count_bounded_words ~limit (inst : I.t) n =
    let adj = adjacency_sets inst n in
    let count = ref 0 in
    match
      enumerate_csg_words ~n ~adj (fun _ ->
          incr count;
          if !count > limit then raise Enough)
    with
    | () -> Some !count
    | exception Enough -> None

  (** Number of connected subsets of the query graph — the table size
      {!dp_connected} allocates, against the lattice's [2^n]. *)
  let csg_count (inst : I.t) =
    let n = I.n inst in
    if n = 0 then 0
    else begin
      if n > max_ccp_n then
        invalid_arg (Printf.sprintf "Ccp.csg_count: n=%d too large (max %d)" n max_ccp_n);
      if n <= max_ccp_word_n then begin
        let adj = adjacency_masks inst n in
        let _, count = connected_layers ~n ~adj in
        count
      end
      else csg_count_words inst n
    end

  (** [csg_count_bounded ~limit inst] is [Some (csg_count inst)] when
      the connected-subset count is at most [limit], and [None] as soon
      as the enumeration passes [limit] — the enumeration stops there,
      so the call costs [O(min (limit, #csg))] instead of [O(#csg)].
      Admission/budget checks use this to size the {!dp_connected}
      table without paying for a full enumeration of a dense graph
      (also [None] above {!max_ccp_n}, where [dp_connected] would
      refuse anyway — that and budget exhaustion are the only [None]
      cases).
      @raise Invalid_argument when [limit < 0] — a caller bug, kept
      distinct from the legitimate [None]s above. *)
  let csg_count_bounded ~limit (inst : I.t) =
    if limit < 0 then
      invalid_arg (Printf.sprintf "Ccp.csg_count_bounded: negative limit %d" limit);
    let n = I.n inst in
    if n = 0 then Some 0
    else if n > max_ccp_n then None
    else if n <= max_ccp_word_n then begin
      let adj = adjacency_masks inst n in
      let count = ref 0 in
      match
        enumerate_csg ~n ~adj (fun _ ->
            incr count;
            if !count > limit then raise Enough)
      with
      | () -> Some !count
      | exception Enough -> None
    end
    else csg_count_bounded_words ~limit inst n

  (* single-word dp (n <= max_ccp_word_n): masks are plain ints *)
  let dp_connected_word ?pool (inst : I.t) n : O.plan =
    Obs.span "ccp.dp_connected" @@ fun () ->
    let adj = adjacency_masks inst n in
    let layers, count = Obs.span "ccp.enumerate_csg" (fun () -> connected_layers ~n ~adj) in
    Obs.incr c_runs;
    Obs.add c_subsets count;
    Obs.set g_table count;
    (* mask -> compact index *)
    let idx = Hashtbl.create (2 * count) in
    let next = ref 0 in
    Array.iter
      (fun layer ->
        Array.iter
          (fun s ->
            Hashtbl.add idx s !next;
            incr next)
          layer)
      layers;
    (let st = Hashtbl.stats idx in
     Obs.set g_idx_buckets st.Hashtbl.num_buckets;
     Obs.set g_idx_max_bucket st.Hashtbl.max_bucket_length);
    (* N(S), evaluated with the lattice DP's lowest-bit-first order and
       memoized: [S \ {lowest}] can be disconnected, so the memo also
       holds the (shared) disconnected tails the recursion peels
       through. Total extra entries are bounded by n * #csg. *)
    let size_memo = Hashtbl.create (4 * count) in
    let rec size_of s =
      if s = 0 then C.one
      else
        match Hashtbl.find_opt size_memo s with
        | Some v -> v
        | None ->
            let b = lowest_bit s in
            let v = bit_index b in
            let rest = s lxor b in
            let size_rest = size_of rest in
            let acc = ref (C.mul size_rest inst.I.sizes.(v)) in
            let common = ref (rest land adj.(v)) in
            let row = inst.I.sel.(v) in
            while !common <> 0 do
              let ub = lowest_bit !common in
              acc := C.mul !acc row.(bit_index ub);
              common := !common lxor ub
            done;
            Hashtbl.add size_memo s !acc;
            !acc
    in
    (* compact per-connected-subset tables *)
    let t = O.make_table ~entries:(Stdlib.max 1 count) ~evals:c_exact_evals inst in
    Array.iter
      (fun layer -> Array.iter (fun s -> O.set_size t (Hashtbl.find idx s) (size_of s)) layer)
      layers;
    Obs.set g_size_memo (Hashtbl.length size_memo);
    Array.iter (fun s -> O.set_singleton t (Hashtbl.find idx s) (bit_index s)) layers.(1);
    (* same candidate order and ranked [min_w] as the lattice [fill_dp],
       settled by the same {!Opt.Make.argmin}; a candidate exists iff
       [s \ {j}] is connected, i.e. present in the table *)
    let fill_dp buf s =
      let i = Hashtbl.find idx s in
      let m = ref s in
      let trans = ref 0 in
      while !m <> 0 do
        let b = lowest_bit !m in
        let j = bit_index b in
        let rest = s lxor b in
        (match Hashtbl.find_opt idx rest with
        | Some ri ->
            buf.(!trans) <- O.cand ~ri ~j ~k:(O.first_in_mask t.O.rank.(j) rest);
            incr trans
        | None -> ());
        m := !m lxor b
      done;
      Obs.add c_transitions !trans;
      O.argmin t i buf !trans
    in
    (* layer k only reads layer k-1 (dp, sizes) and writes its own
       slots, so the layers parallelise exactly like the lattice's
       popcount layers; [idx] and [sizes] are read-only here *)
    (match pool with
    | Some pool when Pool.jobs pool > 1 ->
        for k = 2 to n do
          let layer = layers.(k) in
          let fill () =
            Pool.parallel_for pool ~lo:0 ~hi:(Array.length layer - 1) (fun x ->
                fill_dp (Array.make n 0) layer.(x))
          in
          if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) fill
          else fill ()
        done
    | _ ->
        let buf = Array.make n 0 in
        for k = 2 to n do
          let fill () = Array.iter (fill_dp buf) layers.(k) in
          if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) fill
          else fill ()
        done);
    let full = (1 lsl n) - 1 in
    match Hashtbl.find_opt idx full with
    | None -> { O.cost = C.infinity; seq = [||] }
    | Some fi ->
        let seq = Array.make n (-1) in
        let s = ref full in
        for pos = n - 1 downto 0 do
          let j = t.O.parent.(Hashtbl.find idx !s) in
          seq.(pos) <- j;
          s := !s lxor (1 lsl j)
        done;
        { O.cost = t.O.dp.(fi); seq }

  (** Multi-word dp over [Graphlib.Bitset] subsets: the same table
      layout, size evaluation, transition and tie-break as the
      single-word path, with the int-keyed hash tables replaced by a
      compact hash over the word arrays. Exposed (in addition to the
      dispatching {!dp_connected}) so differential tests can drive the
      multi-word machinery at small [n] where the single-word path is
      the reference. *)
  let dp_connected_words ?pool (inst : I.t) : O.plan =
    let n = I.n inst in
    if n > max_ccp_n then
      invalid_arg (Printf.sprintf "Ccp.dp_connected: n=%d too large (max %d)" n max_ccp_n);
    if n = 0 then invalid_arg "Ccp.dp_connected: empty instance";
    Obs.span "ccp.dp_connected" @@ fun () ->
    let adj = adjacency_sets inst n in
    let layers, count =
      Obs.span "ccp.enumerate_csg" (fun () -> connected_layers_words ~n ~adj)
    in
    Obs.incr c_runs;
    Obs.add c_subsets count;
    Obs.set g_table count;
    (* subset -> compact index; keys are the (never-mutated) layer
       entries themselves *)
    let idx = BH.create (2 * count) in
    let next = ref 0 in
    Array.iter
      (fun layer ->
        Array.iter
          (fun s ->
            BH.add idx s !next;
            incr next)
          layer)
      layers;
    (let st = BH.stats idx in
     Obs.set g_idx_buckets st.Hashtbl.num_buckets;
     Obs.set g_idx_max_bucket st.Hashtbl.max_bucket_length);
    (* N(S) with the lattice DP's lowest-bit-first order, memoized over
       the (shared, possibly disconnected) tails the recursion peels
       through — exactly like the single-word [size_of] *)
    let size_memo = BH.create (4 * count) in
    let rec size_of s =
      if BS.is_empty s then C.one
      else
        match BH.find_opt size_memo s with
        | Some v -> v
        | None ->
            let v = BS.lowest s in
            let rest = BS.copy s in
            BS.remove rest v;
            let size_rest = size_of rest in
            let acc = ref (C.mul size_rest inst.I.sizes.(v)) in
            let row = inst.I.sel.(v) in
            let av = adj.(v) in
            BS.iter (fun u -> if BS.mem av u then acc := C.mul !acc row.(u)) rest;
            BH.add size_memo s !acc;
            !acc
    in
    let t = O.make_table ~entries:(Stdlib.max 1 count) ~evals:c_exact_evals inst in
    Array.iter
      (fun layer -> Array.iter (fun s -> O.set_size t (BH.find idx s) (size_of s)) layer)
      layers;
    Obs.set g_size_memo (BH.length size_memo);
    Array.iter (fun s -> O.set_singleton t (BH.find idx s) (BS.lowest s)) layers.(1);
    (* identical candidate order (ascending = lowest bit first), ranked
       [min_w] and {!Opt.Make.argmin} as the single-word path *)
    let first_in_set rank s =
      let x = ref 0 in
      while not (BS.mem s rank.(!x)) do
        incr x
      done;
      rank.(!x)
    in
    let fill_dp buf s =
      let i = BH.find idx s in
      let trans = ref 0 in
      let rest = BS.copy s in
      BS.iter
        (fun j ->
          BS.remove rest j;
          (match BH.find_opt idx rest with
          | Some ri ->
              buf.(!trans) <- O.cand ~ri ~j ~k:(first_in_set t.O.rank.(j) rest);
              incr trans
          | None -> ());
          BS.add rest j)
        s;
      Obs.add c_transitions !trans;
      O.argmin t i buf !trans
    in
    (match pool with
    | Some pool when Pool.jobs pool > 1 ->
        for k = 2 to n do
          let layer = layers.(k) in
          let fill () =
            Pool.parallel_for pool ~lo:0 ~hi:(Array.length layer - 1) (fun x ->
                fill_dp (Array.make n 0) layer.(x))
          in
          if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) fill
          else fill ()
        done
    | _ ->
        let buf = Array.make n 0 in
        for k = 2 to n do
          let fill () = Array.iter (fill_dp buf) layers.(k) in
          if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) fill
          else fill ()
        done);
    let full = BS.full n in
    match BH.find_opt idx full with
    | None -> { O.cost = C.infinity; seq = [||] }
    | Some fi ->
        let seq = Array.make n (-1) in
        let s = full in
        for pos = n - 1 downto 0 do
          let j = t.O.parent.(BH.find idx s) in
          seq.(pos) <- j;
          BS.remove s j
        done;
        { O.cost = t.O.dp.(fi); seq }

  (** Exact optimum over cartesian-product-free join sequences by
      connected-subgraph DP; bit-identical to
      {!Opt.Make.dp_no_cartesian} (cost [C.infinity] and an empty
      sequence when the query graph is disconnected), but with
      [O(#csg)] table entries instead of [2^n] — far beyond
      [Opt.max_dp_n] on sparse graphs. Subsets are single-word int
      masks up to [n = 61] and multi-word {!Graphlib.Bitset}s beyond
      (chains/trees scale to [n] in the hundreds). With [?pool] (and
      more than one job) each cardinality layer is filled in parallel;
      the result is bit-identical at every job count.
      @raise Invalid_argument above {!max_ccp_n} vertices. *)
  let dp_connected ?pool (inst : I.t) : O.plan =
    let n = I.n inst in
    if n > max_ccp_n then
      invalid_arg (Printf.sprintf "Ccp.dp_connected: n=%d too large (max %d)" n max_ccp_n);
    if n = 0 then invalid_arg "Ccp.dp_connected: empty instance";
    if n <= max_ccp_word_n then dp_connected_word ?pool inst n
    else dp_connected_words ?pool inst
end
