(** [qopt serve]: a long-running request/response optimization service.

    The protocol is line-oriented so it composes with shell pipelines
    and line-delimited sockets alike. A request is:

    {v
    request id=<token> algo=<name> [domain=<rat|log>] [budget_ms=<float>]
    qon 1
    n 2
    size 0 100
    ...
    end
    v}

    i.e. a one-line header, the instance payload in the existing
    [qon 1] format ({!Qo.Io}), and a terminating [end] line. [algo]
    accepts every canonical {!Solver} registry name and alias
    ({!Solver.expected_names}, e.g. [dp] a.k.a. [lattice]); responses,
    cache keys and stats always carry the canonical name. Blank
    lines and [#] comments between requests are ignored — except the
    three {e control requests} [#stats], [#health] and [#hist NAME],
    which are answered in-band with a schema-versioned one-line JSON
    snapshot (see {e Introspection} below). Responses mirror the
    shape:

    {v
    response id=<token> status=ok algo=<a> domain=<d> cache=<hit|miss> approximate=<true|false>
    <plan line, byte-identical to `qopt optimize` output>
    end
    v}

    or, on failure (the process never dies on a bad request):

    {v
    response id=<token> status=error code=<bad-request|parse|too-large|solver>
    error: <one-line message>
    end
    v}

    Error-code contract: [bad-request] = malformed header or truncated
    payload; [parse] = the payload is not a valid [qon 1] instance;
    [too-large] = admission control rejected the request against
    [Opt.max_dp_n] / [Ccp.max_ccp_n] / [Conv.max_conv_n] /
    {!Qo.Io.max_parse_n} before any solving work; [solver] = the solve
    itself failed. A disconnected
    query graph under [algo=ccp] is {e not} an error: it yields a
    [status=ok] response whose plan line carries [cost = 2^inf] and an
    empty sequence, exactly like one-shot [qopt].

    Solved plans are cached under the canonical instance hash (the
    MD5 digest of the {!Qo.Io} dump of the {e parsed} instance, so
    formatting differences and comment lines do not defeat the cache),
    in one table with global LRU eviction: the least recently looked-up
    entry goes first, found in O(1) through an intrusive recency list.
    Cache hits return the stored response body byte-for-byte.

    [budget_ms] enforces a deterministic work model rather than a
    wall-clock timeout (so tests are reproducible): exact DP work is
    modelled as [n * 2^n] transitions, connected-DP work as
    [n * #csg] — measured with {!Qo.Ccp.Make.csg_count_bounded}, whose
    own cost is capped by the same budget — at a configurable
    nanoseconds-per-transition rate. A request whose model exceeds the
    budget falls back to the best of greedy / simulated annealing and
    is marked [approximate=true].

    {2 Concurrency}

    With a {!Pool.t} of [jobs > 1], serving is pipelined: the calling
    domain reads and batches requests, pushes batches into a bounded
    queue (a full queue blocks the reader — that stall is the
    admission backpressure), and [jobs - 1] pool workers process them.
    A turnstile serialises the plan-cache pass in arrival order and a
    reorder buffer restores response order, so {b output bytes, cache
    decisions and stats totals are identical to [jobs = 1]} — the
    sequential path runs the very same pipeline inline. Because every
    lookup already runs under the turnstile, the plan cache has a
    single mutex: finer locking would add no lookup concurrency.
    Concurrent duplicate requests are coalesced: the first claims the
    cache slot and solves; the rest observe a hit and await the filled
    entry. {!Shutdown} (SIGTERM/SIGINT) stops reading, drains every
    accepted request through the workers, and only then returns.

    {2 Introspection}

    A running server is not a black box: control requests ride on the
    comment syntax, so they are backward compatible (any other #-line
    stays a comment) and work over every transport. Exactly

    - [#stats] — reader-side [accepted] count (deterministic at any
      [jobs]) + committed totals and end-to-end latency quantiles,
    - [#health] — liveness: accepted vs completed counts, drain state,
    - [#hist NAME] — one latency histogram in full
      ([latency], [queue_wait], [prepare], [cache], [solve], [commit];
      unit: nanoseconds)

    are answered with a [control <name> status=ok] / [end] block whose
    body is one line of JSON carrying [schema_version = 1] and
    [kind = "qopt-serve-control"] ([status=error] with an [error:]
    line for an unknown histogram name). Controls are answered by the
    reader directly — they never enter the batching pipeline, are not
    counted in [stats.requests], and do not perturb batch boundaries,
    arrival ordinals or cache state, so {b non-control response bytes
    are byte-identical to a control-free run at any [--jobs]}. The
    answer reflects the batches committed when the reader reached the
    control line; with [jobs > 1] its position relative to in-flight
    responses may vary, which is why comparisons go through
    {!split_control}.

    For scrape-style collection, [qopt serve --metrics-file PATH
    --metrics-interval S] writes {!heartbeat_json} snapshots to [PATH]
    atomically (write + rename) every [S] seconds, plus one initial
    and one final snapshot. *)

exception Shutdown
(** Raise from a signal handler (SIGTERM/SIGINT) to stop the serve
    loop; in-flight and already-queued requests are still answered
    (graceful drain), then the loop returns its stats with
    [interrupted = true] instead of propagating. *)

type domain = Rat | Log

val admission_cap : Solver.entry -> string * int
(** [(cap_name, cap)] used by admission control for a solver — the
    largest [n] it will serve, and the constant's name as quoted in
    [too-large] error responses. Both travel with the {!Solver.entry},
    so a new solver cannot be served until its registry entry declares
    a cap (the record fields are not optional). *)

type config = {
  cache_capacity : int;
      (** plan-cache entries before LRU eviction; [0] disables caching *)
  queue_capacity : int;  (** bounded request-queue depth, in batches *)
  batch_size : int;
      (** requests per worker batch. 1 (the default) keeps strict
          request/response interleaving for interactive clients; bulk
          streams can raise it to amortise hand-off costs. Never
          affects response bytes. *)
  rat_transition_ns : float;  (** budget model: ns per DP transition, rational domain *)
  log_transition_ns : float;  (** budget model: ns per DP transition, log domain *)
  record_exact_latencies : bool;
      (** additionally keep every raw latency sample in
          [stats.exact_latencies_ms] (O(requests) memory — the store
          the histograms replaced). Off by default; the bench turns it
          on to verify histogram quantiles against exact sorted-array
          percentiles. *)
}

val default_config : config
(** [{cache_capacity = 256; queue_capacity = 64;
     batch_size = 1; rat_transition_ns = 100.; log_transition_ns = 10.;
     record_exact_latencies = false}] *)

(** Per-stage latency histograms (integer nanoseconds): the request
    lifecycle queue-wait → prepare → cache → solve → commit, one
    series per stage. [queue_wait] and [commit] are per-batch times
    recorded once per request in the batch; [solve] includes the time
    a coalesced request waits for its claimant's fill. *)
type stage_hists = {
  h_queue_wait : Obs.Histogram.t;
  h_prepare : Obs.Histogram.t;
  h_cache : Obs.Histogram.t;
  h_solve : Obs.Histogram.t;
  h_commit : Obs.Histogram.t;
}

type stats = {
  mutable requests : int;
  mutable ok : int;
  mutable errors : int;  (** error responses other than admission rejections *)
  mutable rejected : int;  (** admission-control rejections (code=too-large) *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable coalesced : int;
      (** the subset of [cache_hits] that landed on a still-Pending
          entry and waited for the claimant's fill. The total hit count
          is jobs-invariant; this split is scheduling-dependent at
          [jobs > 1] (hence masked by {!timing_fields}), deterministic
          at [jobs = 1]. *)
  mutable cache_entries : int;
      (** plan-cache occupancy at the last batch commit *)
  mutable evictions : int;
  mutable fallbacks : int;  (** budget-driven exact-to-approximate downgrades *)
  mutable seconds : float;
  mutable interrupted : bool;  (** stopped by {!Shutdown} rather than EOF *)
  latency : Obs.Histogram.t;
      (** end-to-end per-request latency (enqueue → commit), integer
          nanoseconds; O(buckets) memory regardless of request count.
          Basis for {!latency_percentile}. *)
  stages : stage_hists;
  mutable exact_latencies_ms : float list;
      (** raw samples, only populated under
          [config.record_exact_latencies] *)
}

val fresh_stats : unit -> stats
(** A zeroed stats record with fresh (unregistered) histograms. Build
    one to share across {!serve_socket} connections or to read live
    from another domain (heartbeats): integer counts and histogram
    snapshots are benignly racy mid-run, exact after the serve call
    returns. *)

val latency_series : stats -> (string * Obs.Histogram.t) list
(** The named histogram series [#hist] resolves:
    [latency], [queue_wait], [prepare], [cache], [solve], [commit]. *)

type io = {
  next_line : unit -> string option;  (** [None] on end of stream *)
  write : string -> unit;
  flush : unit -> unit;
}
(** Transport abstraction: the same loop serves stdin/stdout, a Unix
    socket connection, or an in-memory string (tests). *)

val render_plan : label:string -> log2_cost:float -> seq:int array -> string
(** The one plan-line renderer, shared with [qopt optimize] so serve
    responses are byte-identical to one-shot CLI output:
    ["%-22s cost = 2^%.2f  seq = [i;j;...]"]. *)

val serve_io : ?pool:Pool.t -> ?config:config -> ?stats:stats -> io -> stats
(** Run the request pipeline until end-of-stream or {!Shutdown}. Every
    per-request failure is turned into an error response; the loop
    itself only ends on EOF, {!Shutdown}, or a dropped transport
    ([Sys_error]). With [?pool] of [jobs > 1] the pipeline runs on the
    pool's workers — same bytes, same stats (see {e Concurrency}
    above). [?stats] supplies a caller-owned record (for live
    heartbeat reads); a fresh one is made otherwise. *)

val serve_channels :
  ?pool:Pool.t -> ?config:config -> ?stats:stats -> in_channel -> out_channel -> stats

val serve_string : ?pool:Pool.t -> ?config:config -> string -> string * stats
(** In-memory transcript: feed a whole request stream, get the
    concatenated responses back. Test entry point. *)

val serve_socket :
  ?pool:Pool.t -> ?config:config -> ?stats:stats -> ?max_conns:int -> string -> stats
(** Listen on a Unix-domain socket at the given path (unlinking any
    stale socket first) and serve connections sequentially, sharing one
    plan cache; aggregate stats across connections. Returns on
    {!Shutdown}, or after [max_conns] connections (default unbounded —
    the bound exists so tests can join the serving domain). *)

val split_control : string -> string * (string * string) list
(** Split a response transcript into its non-control bytes and the
    control blocks, each as [(header_line, body)]. The non-control
    part of a run with control requests must be byte-identical to the
    same workload without them — the invariant the bench and the
    [served-control] fuzz oracle check with this helper. *)

val hit_rate : stats -> float
(** Cache hits over cache lookups (0. when no lookups happened). *)

val latency_percentile : stats -> float -> float
(** [latency_percentile st q]: nearest-rank [q]-th percentile (in
    [0..100]) of the recorded per-request latencies, in milliseconds;
    [0.] when no requests were served. Answered from the latency
    histogram with the same rank formula as the old sorted-array
    store, so it agrees with the exact percentile to within one bucket
    width ({!Obs.Histogram.width_at}, ≤ 6.25% relative). *)

val summary : stats -> string
(** One-line human summary for the shutdown message on stderr. *)

val report_json : jobs:int -> stats -> Obs.Json.t
(** Schema-versioned serving report ([kind = "qopt-serve-report"])
    via {!Obs.run_report}: totals from [stats] — including
    [latency_ms.{count,p50,p95,p99,p999}] — plus a [stages] object
    ({!Obs.Histogram.to_json} per {!latency_series} entry) and the
    process-wide counter/histogram snapshot and span forest. *)

val timing_fields : string list
(** The scheduling-dependent report fields a deterministic comparison
    must mask — wall-clock ([seconds], [latency_ms], [stages],
    [histograms], span timings, GC words) plus [coalesced] (the
    hit/coalesce split depends on solve interleaving at [jobs > 1]) —
    the list {!report_json_masked} feeds to {!Obs.Json.mask_fields}. *)

val report_json_masked : jobs:int -> stats -> Obs.Json.t
(** {!report_json} with {!timing_fields} masked to [null]: two runs
    over the same request stream produce structurally equal masked
    reports regardless of timing. *)

val heartbeat_json : jobs:int -> stats -> Obs.Json.t
(** Live snapshot ([schema_version = 1],
    [kind = "qopt-serve-heartbeat"]): [unix_time], [jobs],
    [interrupted], a [totals] object (counts, hit rate,
    [latency_ms.{count,p50,p95,p99,p999,max}]) and a [stages] object
    with every {!latency_series} histogram. Safe to build from another
    domain while the server runs (benignly racy, exact after the serve
    call returns). *)

val write_heartbeat : jobs:int -> path:string -> stats -> unit
(** Write {!heartbeat_json} to [path] atomically: the snapshot is
    written to [path ^ ".tmp"] and renamed over [path], so a
    concurrent reader never observes a torn file. *)
