(* What serve must answer, computed through public functions only.

   An item's expected outcome depends on its content, never on its id,
   so outcomes are memoised by content: a hot stream re-sends a few
   hundred distinct requests thousands of times and pays for each
   reference solve once. The layer calls here ([Qo.Io] parse/dump,
   the registry's solve closures, greedy+SA, [Serve.render_plan]) are
   the same calls the traced replay times. *)

module R = Qo.Instances.Nl_rat
module L = Qo.Instances.Nl_log

type request = {
  id : string option;
  entry : Solver.entry;
  log : bool;  (** domain=log *)
  budget_ms : float option;
  payload : string;
  key : string;  (** content: everything but the id *)
}

(* Header fields in the shape serve's protocol documents; [None] for
   anything serve answers with code=bad-request. *)
let request_of_lines lines =
  let nl = Array.length lines in
  let payload =
    String.concat "" (List.map (fun l -> l ^ "\n") (Array.to_list (Array.sub lines 1 (nl - 2))))
  in
  let kv t =
    match String.index_opt t '=' with
    | Some i -> Some (String.sub t 0 i, String.sub t (i + 1) (String.length t - i - 1))
    | None -> None
  in
  let rec go id algo log budget = function
    | [] -> (
        match algo with
        | Some entry ->
            let key =
              Printf.sprintf "%s|%b|%s\n%s" entry.Solver.name log
                (match budget with Some b -> Printf.sprintf "%h" b | None -> "-")
                payload
            in
            Some { id; entry; log; budget_ms = budget; payload; key }
        | None -> None)
    | t :: rest -> (
        match kv t with
        | Some ("id", v) when v <> "" -> go (Some v) algo log budget rest
        | Some ("algo", v) -> (
            match Solver.find v with Some e -> go id (Some e) log budget rest | None -> None)
        | Some ("domain", "rat") -> go id algo false budget rest
        | Some ("domain", "log") -> go id algo true budget rest
        | Some ("budget_ms", v) -> (
            match float_of_string_opt v with
            | Some b when Float.is_finite b && b >= 0. -> go id algo log (Some b) rest
            | _ -> None)
        | _ -> None)
  in
  match Workload.tokens (String.trim lines.(0)) with
  | "request" :: kvs when nl >= 2 -> go None None false None kvs
  | _ -> None

(* The id serve echoes: the request's last id=<v> token (even on a
   malformed header). Junk lines and id-less requests get their arrival
   ordinal instead. *)
let stream_id = function
  | Workload.Junk _ -> None
  | Workload.Req lines ->
      List.fold_left
        (fun acc t ->
          if String.length t > 3 && String.sub t 0 3 = "id=" then
            Some (String.sub t 3 (String.length t - 3))
          else acc)
        None
        (Workload.tokens (String.trim lines.(0)))

(* ---------------- the layers, one function each ---------------- *)

type inst = Rat of R.t | Log of L.t

let parse (r : request) =
  if r.log then Log (Qo.Io.parse_log r.payload) else Rat (Qo.Io.parse_rat r.payload)

let n_of = function Rat i -> i.R.n | Log i -> i.L.n
let dump = function Rat i -> Qo.Io.dump_rat i | Log i -> Qo.Io.dump_log i
let domain_name = function Rat _ -> "rat" | Log _ -> "log"
let digest inst canonical = Digest.to_hex (Digest.string (domain_name inst ^ "\n" ^ canonical))

let csg_count ~limit = function
  | Rat i -> Qo.Instances.Ccp_rat.csg_count_bounded ~limit i
  | Log i -> Qo.Instances.Ccp_log.csg_count_bounded ~limit i

(* (label, log2 cost, seq) *)
let solve (e : Solver.entry) = function
  | Rat i ->
      let p = e.Solver.solve_rat i in
      (e.Solver.label, Qo.Rat_cost.to_log2 p.Qo.Instances.Opt_rat.cost, p.Qo.Instances.Opt_rat.seq)
  | Log i -> (
      match e.Solver.solve_log with
      | Some f ->
          let p = f i in
          (e.Solver.label, Logreal.to_log2 p.Qo.Instances.Opt_log.cost, p.Qo.Instances.Opt_log.seq)
      | None -> invalid_arg "rat-only solver on a log instance")

(* serve's budget fallback: the better of greedy and simulated annealing *)
let fallback = function
  | Rat i ->
      let module O = Qo.Instances.Opt_rat in
      let g = O.greedy ~mode:O.Min_cost i and s = O.simulated_annealing i in
      let best, label =
        if Qo.Rat_cost.compare g.O.cost s.O.cost <= 0 then (g, "greedy (min cost)")
        else (s, "simulated anneal")
      in
      (label, Qo.Rat_cost.to_log2 best.O.cost, best.O.seq)
  | Log i ->
      let module O = Qo.Instances.Opt_log in
      let g = O.greedy ~mode:O.Min_cost i and s = O.simulated_annealing i in
      let best, label =
        if Qo.Log_cost.compare g.O.cost s.O.cost <= 0 then (g, "greedy (min cost)")
        else (s, "simulated anneal")
      in
      (label, Logreal.to_log2 best.O.cost, best.O.seq)

let render (label, log2_cost, seq) = Serve.render_plan ~label ~log2_cost ~seq

(* ---------------- the budget model ----------------

   Exact work is modelled as the registry entry's own transition count:
   n * 2^n over the subset lattice, or n * #csg over connected subsets.
   The same count prices ns-per-transition in the traced run and
   predicts serve's exact-vs-approximate decision. *)

(* [limit] caps the #csg enumeration as serve's budget check does; a
   count past it reads as infinity. *)
let transitions ?(limit = max_int - 1) (e : Solver.entry) inst =
  let n = n_of inst in
  let lattice () = float_of_int n *. Float.pow 2. (float_of_int n) in
  let csg () =
    match csg_count ~limit inst with Some c -> float_of_int (n * c) | None -> infinity
  in
  match e.Solver.budget with
  | Solver.B_heuristic -> 0.
  | Solver.B_lattice -> lattice ()
  | Solver.B_dense_then_csg d when n <= d -> lattice ()
  | Solver.B_csg | Solver.B_dense_then_csg _ -> csg ()

let over_budget (cfg : Serve.config) (r : request) inst =
  match r.budget_ms with
  | None -> false
  | Some budget_ms ->
      let ns = if r.log then cfg.Serve.log_transition_ns else cfg.Serve.rat_transition_ns in
      let raw = budget_ms *. 1e6 /. (ns *. float_of_int (max 1 (n_of inst))) in
      let limit =
        if Float.is_finite raw && raw < 1e9 then max 0 (int_of_float raw) else max_int - 1
      in
      transitions ~limit r.entry inst *. ns /. 1e6 > budget_ms

(* ---------------- expected outcomes ---------------- *)

type expect =
  | Error_code of string
  | Exact of { algo : string; domain : string; plan : string }
  | Approximate of { algo : string; domain : string; n : int }

(* Before any solve: the error code, or the parsed instance and whether
   serve must fall back to greedy+SA. *)
type prepared = Rejected of string | Admitted of request * inst * bool

let prepare cfg = function
  | Workload.Junk _ -> Rejected "bad-request"
  | Workload.Req lines -> (
      match request_of_lines lines with
      | None -> Rejected "bad-request"
      | Some r when r.log && r.entry.Solver.solve_log = None -> Rejected "bad-request"
      | Some r -> (
          match parse r with
          | exception (Invalid_argument _ | Failure _) -> Rejected "parse"
          | inst ->
              if n_of inst > r.entry.Solver.cap then Rejected "too-large"
              else Admitted (r, inst, over_budget cfg r inst)))

let expect_of_solve (r : request) inst ~approximate plan =
  let algo = r.entry.Solver.name and domain = domain_name inst in
  if approximate then Approximate { algo; domain; n = n_of inst }
  else
    match plan with
    | Ok p -> Exact { algo; domain; plan = p }
    | Error () -> Error_code "solver"

type t = { cfg : Serve.config; memo : (string, expect) Hashtbl.t }

let create cfg = { cfg; memo = Hashtbl.create 1024 }

let content_key = function
  | Workload.Junk _ -> None
  | Workload.Req lines -> Option.map (fun r -> r.key) (request_of_lines lines)

(* Record an outcome the traced replay already computed. *)
let remember t item e =
  match content_key item with Some k -> Hashtbl.replace t.memo k e | None -> ()

let expected t item =
  let compute () =
    match prepare t.cfg item with
    | Rejected code -> Error_code code
    | Admitted (r, inst, approximate) ->
        let plan =
          if approximate then Error ()
          else match render (solve r.entry inst) with p -> Ok p | exception _ -> Error ()
        in
        expect_of_solve r inst ~approximate plan
  in
  match content_key item with
  | None -> compute ()
  | Some k -> (
      match Hashtbl.find_opt t.memo k with
      | Some e -> e
      | None ->
          let e = compute () in
          Hashtbl.replace t.memo k e;
          e)

(* ---------------- checking one response ---------------- *)

let field toks k =
  List.find_map
    (fun t ->
      let p = k ^ "=" in
      let lp = String.length p in
      if String.length t >= lp && String.sub t 0 lp = p then
        Some (String.sub t lp (String.length t - lp))
      else None)
    toks

let is_permutation n seq_text =
  match List.map int_of_string (List.filter (( <> ) "") (String.split_on_char ';' seq_text)) with
  | l -> List.length l = n && List.sort_uniq compare l = List.init n Fun.id
  | exception Failure _ -> false

let plan_seq body =
  match String.index_opt body '[' with
  | Some i when String.length body > i && body.[String.length body - 1] = ']' ->
      Some (String.sub body (i + 1) (String.length body - i - 2))
  | _ -> None

(* [Ok ()] or a one-line reason. *)
let check ~id_ok expect resp =
  match String.split_on_char '\n' resp with
  | [ header; body; "end"; "" ] -> (
      let toks = Workload.tokens header in
      let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
      match toks with
      | "response" :: _ when not (Option.fold ~none:false ~some:id_ok (field toks "id")) ->
          fail "unexpected id in %S" header
      | "response" :: _ -> (
          match expect with
          | Error_code code ->
              if field toks "status" = Some "error" && field toks "code" = Some code then Ok ()
              else fail "expected code=%s, got %S" code header
          | Exact { algo; domain; plan } ->
              if field toks "status" <> Some "ok" then fail "expected ok, got %S" header
              else if field toks "algo" <> Some algo || field toks "domain" <> Some domain then
                fail "wrong algo/domain in %S" header
              else if field toks "approximate" <> Some "false" then
                fail "expected an exact plan, got %S" header
              else if body <> plan then fail "plan %S, expected %S" body plan
              else Ok ()
          | Approximate { algo; domain; n } ->
              if field toks "status" <> Some "ok" || field toks "approximate" <> Some "true" then
                fail "expected an approximate plan, got %S" header
              else if field toks "algo" <> Some algo || field toks "domain" <> Some domain then
                fail "wrong algo/domain in %S" header
              else (
                match plan_seq body with
                | Some s when is_permutation n s -> Ok ()
                | _ -> fail "approximate plan is not a permutation of %d: %S" n body))
      | _ -> fail "not a response: %S" header)
  | _ -> Error (Printf.sprintf "malformed response block %S" resp)
