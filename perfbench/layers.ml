(* The traced run: per-layer attribution from public calls.

   After an untraced closed-loop run, every measured request is replayed
   in order through the public functions serve's pipeline calls -
   [Qo.Io] parse and canonical dump, the md5 digest of the cache key, and,
   only for requests the untraced run answered cache=miss, the registry
   solve closure (or the greedy+SA fallback) and [Serve.render_plan].
   Each call is one span (name, start, end, request id) under a
   per-request root span; spans stay in memory and are written out when
   the run ends. A layer's self time is its span's duration: layer spans
   have no children. *)

(* Spans are kept in unboxed columns so that recording them adds no
   pointers for the major GC to trace while the replay is timed. *)
type spans = { names : (string, int) Hashtbl.t; mutable rows : int array; ts : Loop.Fvec.t; te : Loop.Fvec.t }

type layer = { mutable calls : int; mutable seconds : float; mutable transitions : float }

type t = {
  spans : spans;
  layers : (string, layer) Hashtbl.t;
  calibration : Loop.Fvec.t;  (** reference kernel times taken between replayed requests *)
}

let create () =
  {
    spans =
      { names = Hashtbl.create 32; rows = [||]; ts = Loop.Fvec.create (); te = Loop.Fvec.create () };
    layers = Hashtbl.create 32;
    calibration = Loop.Fvec.create ();
  }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
      let l = { calls = 0; seconds = 0.; transitions = 0. } in
      Hashtbl.add t.layers name l;
      l

(* row i: request id in rows.(2i), name id in rows.(2i+1) *)
let record t ~req name t_start t_end =
  let s = t.spans in
  let id =
    match Hashtbl.find_opt s.names name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length s.names in
        Hashtbl.add s.names name i;
        i
  in
  let i = s.ts.Loop.Fvec.n in
  if (2 * i) + 1 >= Array.length s.rows then begin
    let rows = Array.make (max 8192 (4 * (i + 1))) 0 in
    Array.blit s.rows 0 rows 0 (Array.length s.rows);
    s.rows <- rows
  end;
  s.rows.(2 * i) <- req;
  s.rows.((2 * i) + 1) <- id;
  Loop.Fvec.push s.ts t_start;
  Loop.Fvec.push s.te t_end

let span ?(transitions = 0.) t ~req name f =
  let t_start = Unix.gettimeofday () in
  let v = f () in
  let t_end = Unix.gettimeofday () in
  record t ~req name t_start t_end;
  let l = layer t name in
  l.calls <- l.calls + 1;
  l.seconds <- l.seconds +. (t_end -. t_start);
  l.transitions <- l.transitions +. transitions;
  v

let request_span = "request"

(* Replay the measured requests of [res]. Exact plans computed here are
   handed to the oracle, so checking the run does not solve them twice.
   Like the loop, the replay samples the reference kernel, so its
   timings can be scaled to the same host speed. *)
let replay t oracle (spec : Workload.spec) items (res : Loop.result) =
  let n_items = Array.length items in
  let last_cal = ref (Unix.gettimeofday ()) in
  for j = 0 to res.Loop.measured - 1 do
    if Unix.gettimeofday () -. !last_cal >= Loop.calibration_period then begin
      Loop.Fvec.push t.calibration (Loop.calibrate ~domains:1);
      last_cal := Unix.gettimeofday ()
    end;
    let k = spec.Workload.warmup + j in
    let item = items.(k mod n_items) in
    let sp name ?transitions f = span t ~req:k name ?transitions f in
    let t_start = Unix.gettimeofday () in
    (match item with
    | Workload.Junk _ -> ()
    | Workload.Req lines -> (
        match Oracle.request_of_lines lines with
        | None -> ()
        | Some r when r.Oracle.log && r.Oracle.entry.Solver.solve_log = None -> ()
        | Some r -> (
            let dom = if r.Oracle.log then "log" else "rat" in
            match sp ("io.parse_" ^ dom) (fun () -> Oracle.parse r) with
            | exception (Invalid_argument _ | Failure _) -> ()
            | inst when Oracle.n_of inst > r.Oracle.entry.Solver.cap -> ()
            | inst -> (
                let canonical = sp ("io.dump_" ^ dom) (fun () -> Oracle.dump inst) in
                ignore (sp "digest" (fun () -> Oracle.digest inst canonical));
                match Bytes.get res.Loop.outcome j with
                | 'm' ->
                    let name = Printf.sprintf "solve.%s.%s" r.Oracle.entry.Solver.name dom in
                    let transitions = Oracle.transitions r.Oracle.entry inst in
                    let plan =
                      match sp name ~transitions (fun () -> Oracle.solve r.Oracle.entry inst) with
                      | p -> Ok (sp "render" (fun () -> Oracle.render p))
                      | exception _ -> Error ()
                    in
                    Oracle.remember oracle item
                      (Oracle.expect_of_solve r inst ~approximate:false plan)
                | 'a' ->
                    let p = sp "solve.fallback" (fun () -> Oracle.fallback inst) in
                    ignore (sp "render" (fun () -> Oracle.render p))
                | _ -> ()))));
    record t ~req:k request_span t_start (Unix.gettimeofday ())
  done

let seconds t pred =
  Hashtbl.fold (fun name l acc -> if pred name then acc +. l.seconds else acc) t.layers 0.

let prefixed p name = String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* Traced layer self time: every span but the per-request roots. *)
let layer_seconds t = seconds t (fun _ -> true)

(* Layer groups for the shares: io, digest, solve, render. *)
let group name =
  if prefixed "io." name then "io"
  else if prefixed "solve." name then "solve"
  else name

let shares t =
  let total = layer_seconds t in
  List.map
    (fun g -> (g, if total > 0. then seconds t (fun n -> group n = g) /. total else 0.))
    [ "io"; "digest"; "solve"; "render" ]

let us_per_call t name =
  match Hashtbl.find_opt t.layers name with
  | Some l when l.calls > 0 -> l.seconds *. 1e6 /. float_of_int l.calls
  | _ -> 0.

let ns_per_transition t name =
  match Hashtbl.find_opt t.layers name with
  | Some l when l.transitions > 0. -> l.seconds *. 1e9 /. l.transitions
  | _ -> 0.

(* One JSON object per span; layer spans name their request's root span
   as parent. *)
let write_spans t path =
  let s = t.spans in
  let names = Array.make (Hashtbl.length s.names) "" in
  Hashtbl.iter (fun name i -> names.(i) <- name) s.names;
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to s.ts.Loop.Fvec.n - 1 do
        let req = s.rows.(2 * i) and name = names.(s.rows.((2 * i) + 1)) in
        Printf.fprintf oc "{\"req\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%s}\n"
          req name
          (Float.Array.get s.ts.Loop.Fvec.a i *. 1e6)
          (Float.Array.get s.te.Loop.Fvec.a i *. 1e6)
          (if name = request_span then "null" else Printf.sprintf "\"%s#%d\"" request_span req)
      done)
