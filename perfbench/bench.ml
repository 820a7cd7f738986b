(* The plan-service benchmark.

     bench.exe --workload hot|cold|mixed --seed N --seconds S --trace 0|1
     bench.exe selftest
     bench.exe pins SEED...

   A run sets the workload up from its seed, drives serve in a closed
   loop for S seconds with tracing off, and checks every response. With
   --trace 1 it then replays the measured requests through the public
   layer functions and reports per-layer metrics instead of end-to-end
   ones. Human-readable lines come first; the last line of stdout is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

   Exit codes: 0 measured and correct; 1 a response or a pinned input
   was wrong; 2 usage; 3 the workload cannot be measured on this host
   (mixed needs 2 cores). *)

let now = Unix.gettimeofday

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank on a sorted array *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q /. 100. *. float_of_int n)) - 1)))

(* A stage quantile from serve's histogram delta, interpolated by rank
   inside its bucket (the bucket representative alone would read the
   same on every run). Microseconds. *)
let hist_quantile_us (before : Obs.Histogram.snap) after q =
  let d = Obs.Histogram.diff before after in
  if d.Obs.Histogram.count = 0 then 0.
  else
    let rank = q /. 100. *. float_of_int (d.Obs.Histogram.count - 1) in
    let rec walk b cum =
      let c = d.Obs.Histogram.buckets.(b) in
      if b = Array.length d.Obs.Histogram.buckets - 1 || rank < float_of_int (cum + c) then begin
        let lo, hi = Obs.Histogram.bucket_bounds b in
        let frac = (rank -. float_of_int cum +. 0.5) /. float_of_int (max 1 c) in
        (float_of_int lo +. (frac *. float_of_int (hi - lo + 1))) /. 1e3
      end
      else walk (b + 1) (cum + c)
    in
    walk 0 0

(* ---------------- host speed ----------------

   The host's speed drifts by tens of percent over seconds (other
   tenants share its cores), far more than the bounds a regression check
   needs. Every run therefore times a fixed program-independent kernel
   ([Loop.reference_kernel]) every [Loop.calibration_period] of the
   loop, on as many domains as the workload uses, and scales its timings
   to the speed at which the kernel takes [nominal_kernel_s]: a run on a
   host running 20% slow reports roughly what it would have measured at
   nominal speed. The raw figures are printed beside the scaled ones. *)

let nominal_kernel_s ~domains = if domains <= 1 then 0.0034 else 0.013

(* > 1 when the host ran slower than nominal *)
let slowdown ~domains kernel_s = kernel_s /. nominal_kernel_s ~domains

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))

(* ---------------- set-up ---------------- *)

type setup = { items : Workload.item array; md5 : string; seconds : float; scaled_s : float }

let set_up (spec : Workload.spec) ~seed =
  let t = now () in
  let text = spec.Workload.generate ~seed in
  let items = Workload.split text in
  let seconds = now () -. t in
  let scaled_s = seconds /. slowdown ~domains:1 (Loop.calibrate ~domains:1) in
  { items; md5 = Digest.to_hex (Digest.string text); seconds; scaled_s }

(* ---------------- checking ---------------- *)

type verdict = { failed : int; reasons : string list }

let verify oracle (res : Loop.result) items =
  let n_items = Array.length items in
  let failed = ref (abs (res.Loop.sent - res.Loop.answered)) and reasons = ref [] in
  if !failed > 0 then
    reasons :=
      [ Printf.sprintf "%d request(s) sent, %d response(s)" res.Loop.sent res.Loop.answered ];
  Hashtbl.iter
    (fun (pos, r) count ->
      let item = items.(pos) in
      (* the arrival ordinal is 1-based and repeats per pass over the stream *)
      let id_ok id =
        match Oracle.stream_id item with
        | Some s -> id = s
        | None -> (
            match int_of_string_opt id with
            | Some o -> o >= 1 && (o - 1) mod n_items = pos
            | None -> false)
      in
      match Oracle.check ~id_ok (Oracle.expected oracle item) r with
      | Ok () -> ()
      | Error why ->
          failed := !failed + !count;
          if List.length !reasons < 5 then
            reasons := Printf.sprintf "item %d: %s" pos why :: !reasons)
    res.Loop.responses;
  { failed = !failed; reasons = List.rev !reasons }

(* ---------------- metrics ---------------- *)

(* requests answered in each whole second after clock start *)
let windows (res : Loop.result) =
  let n = int_of_float res.Loop.elapsed in
  let w = Array.make (max 1 n) 0. in
  Array.iter (fun t -> let i = int_of_float t in if i < n then w.(i) <- w.(i) +. 1.) res.Loop.done_s;
  w

(* (name, scaled value, raw value, unit) *)
let e2e (spec : Workload.spec) (res : Loop.result) (reps : setup list) =
  let lat = Array.copy res.Loop.latency_ms in
  Array.sort compare lat;
  let f = slowdown ~domains:spec.Workload.jobs (mean res.Loop.calibration) in
  let throughput = float_of_int res.Loop.measured /. res.Loop.elapsed in
  let med g = median (Array.of_list (List.map g reps)) in
  let heap = float_of_int (res.Loop.top_heap_words * (Sys.word_size / 8)) /. 1048576. in
  [
    ("throughput_rps", throughput *. f, throughput, "1/s");
    ("latency_p50_ms", percentile lat 50. /. f, percentile lat 50., "ms");
    ("latency_p99_ms", percentile lat 99. /. f, percentile lat 99., "ms");
    ("setup_s", med (fun s -> s.scaled_s), med (fun s -> s.seconds), "s");
    ("heap_peak_mb", heap, heap, "MB");
  ]

(* Every registry entry in each domain it serves. Kept as a fixed list
   so the metric set stays the one BENCHMARK.json names. *)
let solve_layers =
  List.concat_map
    (fun (algo, domains) -> List.map (fun d -> Printf.sprintf "solve.%s.%s" algo d) domains)
    [
      ("dp", [ "rat"; "log" ]);
      ("ccp", [ "rat"; "log" ]);
      ("conv", [ "rat"; "log" ]);
      ("greedy", [ "rat"; "log" ]);
      ("sa", [ "rat"; "log" ]);
      ("simpli", [ "rat"; "log" ]);
      ("milp", [ "rat" ]);
    ]

(* Replay timings are scaled by the replay's own kernel times, loop
   timings by the loop's, so both sides of overhead and coverage read at
   nominal host speed. *)
let per_layer (spec : Workload.spec) (t : Layers.t) (res : Loop.result) =
  let b = res.Loop.before and a = res.Loop.after in
  let n = float_of_int (max 1 res.Loop.measured) in
  let replay_kernel = mean (Loop.Fvec.to_array t.Layers.calibration) in
  let f_replay = if replay_kernel > 0. then slowdown ~domains:1 replay_kernel else 1. in
  let f_loop = slowdown ~domains:spec.Workload.jobs (mean res.Loop.calibration) in
  let lookups = a.Loop.hits - b.Loop.hits + (a.Loop.misses - b.Loop.misses) in
  let layer_s = Layers.layer_seconds t /. f_replay in
  let latency_s = Array.fold_left ( +. ) 0. res.Loop.latency_ms /. 1e3 /. f_loop in
  let shares = Layers.shares t in
  let us name = (name ^ ".us_per_call", Layers.us_per_call t name /. f_replay, "us") in
  List.map us [ "io.parse_rat"; "io.parse_log"; "io.dump_rat"; "io.dump_log" ]
  @ [ ("io.share", List.assoc "io" shares, "share") ]
  @ List.map us [ "digest"; "render" ]
  @ List.map us (solve_layers @ [ "solve.fallback" ])
  @ List.concat_map
      (fun algo ->
        List.map
          (fun dom ->
            let name = Printf.sprintf "solve.%s.%s" algo dom in
            (name ^ ".ns_per_transition", Layers.ns_per_transition t name /. f_replay, "ns"))
          [ "rat"; "log" ])
      [ "dp"; "ccp"; "conv" ]
  @ [
      ("solve.share", List.assoc "solve" shares, "share");
      ( "cache.hit_rate",
        (if lookups = 0 then 0.
         else float_of_int (a.Loop.hits - b.Loop.hits) /. float_of_int lookups),
        "share" );
      ("cache.evictions_per_req", float_of_int (a.Loop.evictions - b.Loop.evictions) /. n, "1/req");
      ("cache.coalesced_per_req", float_of_int (a.Loop.coalesced - b.Loop.coalesced) /. n, "1/req");
      ( "serve.stage.cache_p50_us",
        hist_quantile_us b.Loop.cache_stage a.Loop.cache_stage 50. /. f_loop,
        "us" );
      ( "serve.queue_wait_p50_us",
        hist_quantile_us b.Loop.queue_wait a.Loop.queue_wait 50. /. f_loop,
        "us" );
      ("serve.overhead_us_per_req", (latency_s -. layer_s) *. 1e6 /. n, "us");
      ("gc.minor_words_per_req", (a.Loop.minor_words -. b.Loop.minor_words) /. n, "words");
      ( "gc.major_collections",
        float_of_int (a.Loop.major_collections - b.Loop.major_collections),
        "count" );
      ( "trace.coverage",
        (if res.Loop.elapsed > 0. then layer_s /. (res.Loop.elapsed /. f_loop) else 0.),
        "share" );
      ("host.reference_kernel_ms", 1e3 *. replay_kernel, "ms");
    ]

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, raw, unit) ->
      if raw = v then Printf.printf "%-36s %14.6g %s\n" name v unit
      else Printf.printf "%-36s %14.6g %-5s (raw %.6g)\n" name v unit raw)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, _, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics))

(* ---------------- one run ---------------- *)

let setup_reps = 5

let run_workload (spec : Workload.spec) ~seed ~seconds ~trace ~spans_dir =
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf "workload %s seed %d seconds %g trace %d host_cores %d jobs %d window %d\n"
    spec.Workload.name seed seconds trace host_cores spec.Workload.jobs spec.Workload.window;
  if spec.Workload.jobs > host_cores then begin
    Printf.printf "%s: unmeasured (jobs %d needs %d cores, host has %d)\n" spec.Workload.name
      spec.Workload.jobs spec.Workload.jobs host_cores;
    exit 3
  end;
  let pins = Workload.read_pins () in
  let first = set_up spec ~seed in
  Gc.full_major ();
  let res = Loop.run spec first.items ~seconds in
  (* the remaining set-up repetitions run after the loop so they do not
     raise the heap peak the loop reports *)
  let reps = first :: List.init (setup_reps - 1) (fun _ -> set_up spec ~seed) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.exists (fun s -> s.md5 <> first.md5) reps then problem "set-up is not deterministic";
  (match Workload.pinned pins ~workload:spec.Workload.name ~seed with
  | Some d when d <> first.md5 -> problem "seed %d input md5 %s, pinned %s" seed first.md5 d
  | _ -> ());
  (if seed <> pins.Workload.reference_seed then
     let r = pins.Workload.reference_seed in
     match Workload.pinned pins ~workload:spec.Workload.name ~seed:r with
     | Some d when d <> (set_up spec ~seed:r).md5 -> problem "reference seed %d input changed" r
     | Some _ -> ()
     | None -> problem "no pin for the reference seed %d" r);
  let oracle = Oracle.create spec.Workload.config in
  let metrics =
    if trace = 0 then e2e spec res reps
    else begin
      let t = Layers.create () in
      Layers.replay t oracle spec first.items res;
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      Layers.write_spans t
        (Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.jsonl" spec.Workload.name seed));
      List.iter
        (fun (g, s) -> Printf.printf "layer share %-8s %6.1f%%\n" g (100. *. s))
        (Layers.shares t);
      List.map (fun (name, v, unit) -> (name, v, v, unit)) (per_layer spec t res)
    end
  in
  let v = verify oracle res first.items in
  List.iter (fun r -> Printf.printf "FAIL %s\n" r) (v.reasons @ List.rev !problems);
  let share c =
    let k = Bytes.fold_left (fun acc c' -> if c' = c then acc + 1 else acc) 0 res.Loop.outcome in
    100. *. float_of_int k /. float_of_int (max 1 res.Loop.measured)
  in
  Printf.printf "input md5 %s items %d; measured %d requests in %.3f s (%d warm-up)\n" first.md5
    (Array.length first.items) res.Loop.measured res.Loop.elapsed spec.Workload.warmup;
  Printf.printf "responses: hit %.1f%%, exact miss %.1f%%, approximate miss %.1f%%, error %.1f%%\n"
    (share 'h') (share 'm') (share 'a') (share 'e');
  Printf.printf "reference kernel %.3f ms on %d domain(s): host %.1f%% slower than nominal\n"
    (1e3 *. mean res.Loop.calibration) spec.Workload.jobs
    (100. *. (slowdown ~domains:spec.Workload.jobs (mean res.Loop.calibration) -. 1.));
  Printf.printf "per-second throughput: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") (windows res))));
  Printf.printf "failed_share %.6g (%d/%d)\n"
    (float_of_int v.failed /. float_of_int (max 1 res.Loop.sent))
    v.failed res.Loop.sent;
  (* a wrong input fails the whole workload, not single requests *)
  let failed = if !problems = [] then v.failed else res.Loop.sent in
  print_result ~correct:(failed = 0) ~attempted:res.Loop.sent ~failed metrics;
  if failed > 0 then exit 1

(* ---------------- self-test ----------------

   Two count-bounded jobs-1 runs of hot and cold must agree exactly on
   every count (hits, misses, evictions, layer calls, modelled
   transitions, failures) and on the response bytes. *)

let selftest_once (spec : Workload.spec) ~requests =
  let s = set_up spec ~seed:1 in
  let res = Loop.run ~max_requests:requests ~keep_transcript:true spec s.items ~seconds:infinity in
  let t = Layers.create () in
  let oracle = Oracle.create spec.Workload.config in
  Layers.replay t oracle spec s.items res;
  let v = verify oracle res s.items in
  let a = res.Loop.after in
  let layers =
    Hashtbl.fold (fun name l acc -> (name, l.Layers.calls, l.Layers.transitions) :: acc) t.Layers.layers []
    |> List.sort compare
  in
  ( (res.Loop.sent, a.Loop.requests, a.Loop.hits, a.Loop.misses, a.Loop.evictions, a.Loop.coalesced),
    layers,
    v.failed,
    Digest.to_hex (Digest.string res.Loop.transcript) )

let selftest () =
  let ok = ref true in
  List.iter
    (fun (name, requests) ->
      let spec = Option.get (Workload.find name) in
      let r1 = selftest_once spec ~requests and r2 = selftest_once spec ~requests in
      let (_, _, failed, md5) = r1 in
      let pass = r1 = r2 && failed = 0 in
      if not pass then ok := false;
      Printf.printf "%s %s: two runs of %d requests, failures %d, responses md5 %s\n"
        (if pass then "PASS" else "FAIL") name requests failed md5)
    [ ("hot", 3000); ("cold", 150) ];
  if not !ok then exit 1

(* The pins.txt lines for the given seeds: re-pin after a deliberate
   change to the generators. *)
let print_pins seeds =
  List.iter
    (fun seed ->
      List.iter
        (fun (spec : Workload.spec) ->
          Printf.printf "%s %d %s\n" spec.Workload.name seed (set_up spec ~seed).md5)
        Workload.specs)
    seeds

(* ---------------- command line ---------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload hot|cold|mixed --seed N --seconds S --trace 0|1 \
     [--spans-dir DIR]\n       bench.exe selftest\n       bench.exe pins SEED...";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "selftest" ] -> selftest ()
  | _ :: "pins" :: seeds -> print_pins (List.map int_of_string seeds)
  | _ :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
      let spec = match Workload.find (get "workload") with Some s -> s | None -> usage () in
      let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0. -> s | _ -> usage () in
      let trace = match int "trace" with (0 | 1) as t -> t | _ -> usage () in
      let spans_dir = Option.value (List.assoc_opt "spans-dir" opts) ~default:".bench_out" in
      run_workload spec ~seed:(int "seed") ~seconds ~trace ~spans_dir
  | [] -> usage ()
