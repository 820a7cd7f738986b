(* The closed loop: one client driving [Serve.serve_io] in-process.

   The benchmark's own [Serve.io] hands serve one item at a time and
   keeps at most [spec.window] requests outstanding: the next request's
   first line is handed over only once a response has freed a slot. A
   request is timed from the moment its first line is handed to serve
   until its response is written. Responses come back in arrival order
   (serve's reorder buffer), so the k-th response belongs to the k-th
   item sent. After [spec.warmup] items the loop drains, snapshots
   serve's counters and starts the clock; it stops handing out items
   once [seconds] have passed (or [max_requests] were measured) and
   serve drains what is still outstanding. *)

module Fvec = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create ?(capacity = 4096) () = { a = Float.Array.create capacity; n = 0 }

  let push v x =
    if v.n = Float.Array.length v.a then begin
      let b = Float.Array.create (2 * v.n) in
      Float.Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Float.Array.set v.a v.n x;
    v.n <- v.n + 1

  let to_array v = Array.init v.n (Float.Array.get v.a)
end

type snapshot = {
  requests : int;
  hits : int;
  misses : int;
  evictions : int;
  coalesced : int;
  cache_stage : Obs.Histogram.snap;
  queue_wait : Obs.Histogram.snap;
  minor_words : float;
  major_collections : int;
}

let snapshot (st : Serve.stats) =
  let g = Gc.quick_stat () in
  {
    requests = st.Serve.requests;
    hits = st.Serve.cache_hits;
    misses = st.Serve.cache_misses;
    evictions = st.Serve.evictions;
    coalesced = st.Serve.coalesced;
    cache_stage = Obs.Histogram.snap st.Serve.stages.Serve.h_cache;
    queue_wait = Obs.Histogram.snap st.Serve.stages.Serve.h_queue_wait;
    minor_words = g.Gc.minor_words;
    major_collections = g.Gc.major_collections;
  }

type result = {
  sent : int;  (** items handed to serve, warm-up included *)
  answered : int;  (** responses written, warm-up included *)
  measured : int;  (** responses to items sent after the warm-up *)
  elapsed : float;  (** seconds from clock start to the last response *)
  latency_ms : float array;  (** per measured request, in arrival order *)
  done_s : float array;  (** completion time after clock start, per measured request *)
  outcome : Bytes.t;
      (** per measured request: 'h' hit, 'm' exact miss, 'a' approximate
          miss, 'e' error response *)
  responses : (int * string, int ref) Hashtbl.t;
      (** (stream position, response bytes) -> times written *)
  transcript : string;  (** every response, when asked for *)
  before : snapshot;  (** at clock start *)
  after : snapshot;  (** after the last response *)
  top_heap_words : int;
  calibration : float array;  (** seconds per reference_kernel run, sampled during the loop *)
}

(* Scan the header line only; no allocation on the response path. *)
let header_has r sub =
  let n = match String.index_opt r '\n' with Some i -> i | None -> String.length r in
  let m = String.length sub in
  let rec at i j = j = m || (r.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
  go 0

let classify r =
  if header_has r " status=error" then 'e'
  else if header_has r " cache=hit" then 'h'
  else if header_has r " approximate=true" then 'a'
  else 'm'

(* Fixed work that does not touch the program: integer sorting, md5 over
   a constant buffer, and allocation in the program's pattern - many
   short-lived blocks, with a share kept alive long enough to be
   promoted, so minor and major collection are part of the cost. Its
   duration tracks the host's speed during the run. *)
let reference_kernel () =
  let st = ref 12345 in
  let a = Array.make 2048 0 in
  let buf = String.make 4096 'x' in
  let kept = Array.make 512 [] in
  let acc = ref 0 in
  for round = 1 to 4 do
    for i = 0 to Array.length a - 1 do
      st := ((!st * 1103515245) + 12345) land 0x3fffffff;
      a.(i) <- !st
    done;
    Array.sort compare a;
    for j = 0 to 63 do
      let l = List.init 256 (fun i -> Int64.of_int (a.(i) + j)) in
      acc := !acc + Int64.to_int (List.fold_left Int64.add 0L l) land 0xff;
      if j land 7 = 0 then kept.(((round * 64) + j) land 511) <- l
    done;
    acc := !acc + Char.code (Digest.string buf).[0]
  done;
  ignore (Sys.opaque_identity (!acc, kept))

(* The kernel's wall time when run at once on [domains] domains: the
   calling one and [domains - 1] spawned for the purpose. *)
let calibrate ~domains =
  let a = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference_kernel) in
  reference_kernel ();
  List.iter Domain.join others;
  Unix.gettimeofday () -. a

(* seconds between two reference-kernel samples *)
let calibration_period = 0.125

let per_run = 1 lsl 20

let run ?(max_requests = max_int) ?(keep_transcript = false) (spec : Workload.spec) items
    ~seconds =
  let n_items = Array.length items in
  let m = Mutex.create () and freed = Condition.create () in
  let outstanding = ref 0 and sent = ref 0 and answered = ref 0 in
  (* send times of the requests in flight, indexed by arrival number *)
  let ring = Float.Array.make 64 0. in
  let t0 = ref 0. and before = ref None in
  let paused = ref 0. and last_cal = ref 0. and cal = Fvec.create () in
  let cur = ref [||] and line = ref 0 in
  let stats = Serve.fresh_stats () in
  (* Per-request records are preallocated for a million requests, so
     that their growth cannot move a run's heap peak with its speed. *)
  let lat = Fvec.create ~capacity:per_run () and done_s = Fvec.create ~capacity:per_run () in
  let outcome = Buffer.create per_run and transcript = Buffer.create 0 in
  let responses = Hashtbl.create 4096 in
  (* returns holding [m] *)
  let lock_when cond =
    Mutex.lock m;
    while not (cond ()) do
      Condition.wait freed m
    done
  in
  let start_item () =
    let k = !sent in
    if k = spec.Workload.warmup then begin
      lock_when (fun () -> !outstanding = 0);
      Mutex.unlock m;
      before := Some (snapshot stats);
      t0 := Unix.gettimeofday ();
      last_cal := !t0
    end;
    if k > spec.Workload.warmup && Unix.gettimeofday () -. !last_cal >= calibration_period then begin
      lock_when (fun () -> !outstanding = 0);
      Mutex.unlock m;
      let c = calibrate ~domains:spec.Workload.jobs in
      Fvec.push cal c;
      paused := !paused +. c;
      last_cal := Unix.gettimeofday ()
    end;
    if
      k >= spec.Workload.warmup
      && (Unix.gettimeofday () -. !t0 -. !paused >= seconds || k - spec.Workload.warmup >= max_requests)
    then None
    else begin
      lock_when (fun () -> !outstanding < spec.Workload.window);
      Float.Array.set ring (k land 63) (Unix.gettimeofday ());
      incr outstanding;
      incr sent;
      Mutex.unlock m;
      let lines =
        match items.(k mod n_items) with
        | Workload.Junk l -> [| l |]
        | Workload.Req ls -> ls
      in
      cur := lines;
      line := 1;
      Some lines.(0)
    end
  in
  let next_line () =
    if !line < Array.length !cur then begin
      let l = !cur.(!line) in
      incr line;
      Some l
    end
    else start_item ()
  in
  let write r =
    let t = Unix.gettimeofday () in
    Mutex.lock m;
    let k = !answered in
    let t_sent = Float.Array.get ring (k land 63) in
    incr answered;
    decr outstanding;
    Condition.broadcast freed;
    Mutex.unlock m;
    (match Hashtbl.find_opt responses (k mod n_items, r) with
    | Some c -> incr c
    | None -> Hashtbl.add responses (k mod n_items, r) (ref 1));
    if k >= spec.Workload.warmup then begin
      Fvec.push lat ((t -. t_sent) *. 1e3);
      Fvec.push done_s (t -. !t0 -. !paused);
      Buffer.add_char outcome (classify r)
    end;
    if keep_transcript then Buffer.add_string transcript r
  in
  let io = { Serve.next_line; write; flush = ignore } in
  let serve ?pool () = ignore (Serve.serve_io ?pool ~config:spec.Workload.config ~stats io) in
  if spec.Workload.jobs > 1 then Pool.with_pool ~jobs:spec.Workload.jobs (fun pool -> serve ~pool ())
  else serve ();
  let after = snapshot stats in
  if cal.Fvec.n = 0 then Fvec.push cal (calibrate ~domains:spec.Workload.jobs);
  let done_s = Fvec.to_array done_s in
  let measured = Array.length done_s in
  {
    sent = !sent;
    answered = !answered;
    measured;
    elapsed = (if measured = 0 then 0. else done_s.(measured - 1));
    latency_ms = Fvec.to_array lat;
    done_s;
    outcome = Buffer.to_bytes outcome;
    responses;
    transcript = Buffer.contents transcript;
    before = Option.value !before ~default:after;
    after;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    calibration = Fvec.to_array cal;
  }
