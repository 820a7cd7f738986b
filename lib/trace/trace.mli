(** Seeded workload-trace generation and replay.

    Production optimizer traffic is repetitive and skewed: a small set
    of hot queries dominates, the same query shapes recur with
    drifting scalars, requests arrive in bursts, and a hostile tail of
    malformed/oversized/infeasible requests rides along. This module
    synthesizes such workloads as line-delimited {!Serve} request
    streams (so the concurrent serve pipeline — coalescing LRU
    plan cache, backpressure, latency histograms — is exercised under
    cache-realistic skew rather than hand-built transcripts), and
    replays them into a schema-versioned [qopt-trace-report].

    Everything is deterministic per {!params}: generation uses one
    seeded [Random.State], never the work pool, so trace bytes are
    invariant under [--jobs]; replay responses are byte-identical at
    any [--jobs] by serve's pipeline invariant (checked by
    {!check_identity}). *)

(** O(1) Zipfian sampling over [{0, ..., n-1}] by Walker/Vose alias
    tables: [P(k) ∝ (k+1)^(-s)]. [s = 0] is uniform; larger [s] is
    more skewed. *)
module Zipf : sig
  type t

  val create : s:float -> n:int -> t
  (** Build the alias table for [P(k) ∝ (k+1)^(-s)] over [0..n-1].
      @raise Invalid_argument when [n <= 0] or [s] is negative or
      non-finite. *)

  val size : t -> int

  val pmf : t -> int -> float
  (** The exact normalized probability of rank [k] — what empirical
      frequency tests compare against.
      @raise Invalid_argument out of range. *)

  val sample : t -> Random.State.t -> int
  (** One draw: a uniform column plus a biased coin — O(1), no search. *)
end

type params = {
  requests : int;  (** number of serve requests to emit *)
  seed : int;  (** master seed; every derived stream hangs off it *)
  skew : float;  (** Zipf exponent [s] over the base-instance pool *)
  pool_size : int;  (** number of distinct base instances *)
  templates : int;
      (** template families: same query shape re-dumped with drifting
          scalars — canonical-hash near-misses that defeat the plan
          cache (0 disables) *)
  drift_every : int;
      (** requests between template scalar drifts (one cache miss per
          family per drift window) *)
  burst : int;
      (** max arrival-burst length: each chosen request repeats
          [1..burst] times under distinct ids, engaging batching,
          queueing and duplicate coalescing *)
  hostile_pct : int;
      (** percentage (0..100) of hostile-tail requests: junk lines,
          payload parse errors, admission-cap violations, rat-only
          algos on [domain=log], budget-starved [f_N] hard instances,
          and disconnected graphs under cartesian-free solvers *)
}

val default_params : params
(** [{requests = 100_000; seed = 1; skew = 0.9; pool_size = 512;
    templates = 8; drift_every = 500; burst = 4; hostile_pct = 5}].
    [pool_size] deliberately exceeds serve's default cache capacity
    (256): default replays run under cache pressure, which is what
    makes the hit-rate-vs-skew curve move. *)

val provenance_line : params -> string
(** The ["# qopt-trace v1 seed=... requests=... skew=... pool=...
    templates=... drift=... burst=... hostile=..."] comment header
    emitted as the first trace line (serve ignores [#] lines between
    requests, so a trace replays unmodified). *)

val parse_provenance : string -> (string * string) list
(** [key = value] pairs recovered from a trace's provenance header —
    empty when the text does not begin with one. *)

val generate : params -> string
(** The whole trace as one string: provenance header + [requests]
    line-delimited serve requests. Deterministic per [params]; uses no
    pool or global state. @raise Invalid_argument on nonsensical
    params (see {!params} field ranges). *)

val emit : params -> (string -> unit) -> unit
(** Streaming form of {!generate}: feed the trace to [sink] chunk by
    chunk (header first, then one chunk per request) without
    materializing it. {!generate} and {!write} are thin wrappers. *)

val write : path:string -> params -> unit
(** Stream {!generate}'s bytes to [path] without building the whole
    trace in memory (a 10⁶-request trace is hundreds of MB). *)

val inject_probes : every:int -> string -> string
(** Insert an in-band control probe before every [every]-th request
    line (alternating [#stats] and [#hist solve]) plus one final
    [#stats], leaving all other bytes untouched. [every <= 0] returns
    the text unchanged. Control responses interleave with normal
    traffic without perturbing it ({!Serve.split_control}). *)

val replay :
  ?pool:Pool.t ->
  ?config:Serve.config ->
  ?probe_every:int ->
  string ->
  string * Serve.stats * float
(** [replay trace] streams the trace through {!Serve.serve_string}
    (after {!inject_probes} when [probe_every > 0]) and returns
    [(responses, stats, seconds)]. *)

val stats_key : Serve.stats -> int * int * int * int * int * int * int * int
(** The jobs-invariant integer totals — [(requests, ok, errors,
    rejected, cache_hits, cache_misses, evictions, fallbacks)] —
    excluding the scheduling-dependent coalesce split. *)

val check_identity :
  ?config:Serve.config -> ?probe_every:int -> jobs:int -> string -> bool * string
(** Replay the trace at [--jobs 1] and at [--jobs n]; [true] when the
    non-control response bytes ({!Serve.split_control}) are identical
    and {!stats_key} agrees. The [string] is a human diagnosis of the
    first divergence (empty on success). *)

val report_json :
  jobs:int ->
  trace:string ->
  out:string ->
  seconds:float ->
  ?identity:bool ->
  Serve.stats ->
  Obs.Json.t
(** Schema-versioned replay report ([kind = "qopt-trace-report"]) on
    the {!Obs.run_report} envelope: [jobs], the parsed trace
    provenance, totals (counts, coalescing, cache occupancy, hit rate,
    throughput), hostile-tail error accounting ([errors_by_code]),
    response facts recovered from the transcript (hit/approximate
    line counts, control-block count), per-stage p50/p95/p99
    latencies, and — when [identity] is given — the jobs-invariance
    verdict. *)

val report_masked_fields : string list
(** {!Serve.timing_fields} plus the replay-specific wall-clock-derived
    fields ([requests_per_s], [stage_ms]) and the process-global Obs
    sections ([counters], [spans]) that concurrent work outside the
    replay can mutate — what a deterministic report comparison masks. *)

val report_json_masked :
  jobs:int ->
  trace:string ->
  out:string ->
  seconds:float ->
  ?identity:bool ->
  Serve.stats ->
  Obs.Json.t
(** {!report_json} with {!report_masked_fields} masked to [null]: two
    replays of the same trace at the same jobs produce structurally
    equal masked reports (the [trace-replay-det] fuzz oracle). *)

val summary : jobs:int -> seconds:float -> Serve.stats -> string
(** One-line human summary for stderr: request count, jobs, hit rate,
    throughput. *)
