(* The benchmark's workloads: seeded request streams for [qopt serve].

   Each workload is a byte stream of serve requests made by public
   generators ([Trace.generate], [Qo.Gen_inst]) from the run's seed, so
   the program under test receives only request bytes. The stream is
   split into items exactly the way serve's reader splits it (a
   "request" header through its "end" line, or one unrecognised line),
   and the closed loop hands items to serve one at a time. A run that
   outlasts the stream starts over from its first item: the streams are
   longer than the plan cache, so a repeat of an evicted instance is a
   miss again and the hit/miss shape of the workload is preserved. *)

type item =
  | Junk of string  (** one unrecognised line: serve answers code=bad-request *)
  | Req of string array  (** header line, payload lines, "end" *)

type spec = {
  name : string;
  jobs : int;  (** serve worker domains: 1 = sequential pipeline *)
  window : int;  (** closed loop: requests outstanding at once *)
  warmup : int;  (** items served before the clock starts *)
  config : Serve.config;
  generate : seed:int -> string;
}

let config ~cache = { Serve.default_config with cache_capacity = cache; batch_size = 1 }

(* ---------------- generators ---------------- *)

let trace_requests = 20_000

(* Trace's default 8 template families each draw one sticky algo from
   the seed, so which solvers the drifting templates miss on - about
   half of all misses - swings from seed to seed. 64 families drifting
   8x less often keep the template miss rate and average the algo mix. *)
let trace_params seed =
  { Trace.default_params with requests = trace_requests; seed; templates = 64; drift_every = 4_000 }

let hot_params seed = { (trace_params seed) with skew = 1.4 }
let mixed_params seed = trace_params seed

(* cold: every request a distinct instance. One block is the cross
   product shape x n x algo, sent once in each domain; blocks are
   shuffled per seed but have the same composition, so the run-to-run
   mix of solve costs is fixed and only the instances differ. *)
let cold_shapes = [| "tree"; "chain"; "star"; "cycle"; "random" |]
let cold_ns = [| 7; 8; 9; 10; 11 |]
let cold_algos = [| "dp"; "ccp"; "conv" |]
let cold_blocks = 30

let connected_random ~seed ~n =
  (* the cartesian-free solvers reject disconnected graphs; redraw *)
  let rec go s =
    let inst = Qo.Gen_inst.R.random ~seed:s ~n ~p:0.5 () in
    if Graphlib.Ugraph.is_connected inst.Qo.Instances.Nl_rat.graph then s else go (s + 7919)
  in
  go seed

let cold_payload ~log ~shape ~n ~seed =
  let seed = if shape = "random" then connected_random ~seed ~n else seed in
  if log then
    let module G = Qo.Gen_inst.L in
    Qo.Io.dump_log
      (match shape with
      | "tree" -> G.tree ~seed ~n ()
      | "chain" -> G.chain ~seed ~n ()
      | "star" -> G.star ~seed ~satellites:(n - 1) ()
      | "cycle" -> G.cycle ~seed ~n ()
      | _ -> G.random ~seed ~n ~p:0.5 ())
  else
    let module G = Qo.Gen_inst.R in
    Qo.Io.dump_rat
      (match shape with
      | "tree" -> G.tree ~seed ~n ()
      | "chain" -> G.chain ~seed ~n ()
      | "star" -> G.star ~seed ~satellites:(n - 1) ()
      | "cycle" -> G.cycle ~seed ~n ()
      | _ -> G.random ~seed ~n ~p:0.5 ())

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let cold_generate ~seed =
  let st = Random.State.make [| seed; 0xc01d |] in
  let ncells = Array.length cold_shapes * Array.length cold_ns * Array.length cold_algos in
  let b = Buffer.create (cold_blocks * ncells * 2 * 400) in
  let k = ref 0 in
  for _ = 1 to cold_blocks do
    let rat = Array.init ncells Fun.id and log = Array.init ncells Fun.id in
    shuffle st rat;
    shuffle st log;
    for i = 0 to (2 * ncells) - 1 do
      (* domains alternate rat/log request by request *)
      let is_log = i land 1 = 1 in
      let cell = (if is_log then log else rat).(i / 2) in
      let shape = cold_shapes.(cell mod Array.length cold_shapes) in
      let n = cold_ns.(cell / Array.length cold_shapes mod Array.length cold_ns) in
      let algo = cold_algos.(cell / (Array.length cold_shapes * Array.length cold_ns)) in
      let inst_seed = Random.State.bits st in
      Buffer.add_string b
        (Printf.sprintf "request id=c%d algo=%s%s\n" !k algo
           (if is_log then " domain=log" else ""));
      Buffer.add_string b (cold_payload ~log:is_log ~shape ~n ~seed:inst_seed);
      Buffer.add_string b "end\n";
      incr k
    done
  done;
  Buffer.contents b

let specs =
  [
    {
      name = "hot";
      jobs = 1;
      window = 1;
      warmup = 2_000;
      config = config ~cache:256;
      generate = (fun ~seed -> Trace.generate (hot_params seed));
    };
    {
      name = "cold";
      jobs = 1;
      window = 1;
      warmup = 30;
      config = config ~cache:256;
      generate = cold_generate;
    };
    {
      name = "mixed";
      jobs = 2;
      window = 4;
      warmup = 2_000;
      config = config ~cache:256;
      generate = (fun ~seed -> Trace.generate (mixed_params seed));
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* ---------------- items ---------------- *)

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* The same framing as serve's reader: blank and '#' lines between
   requests are skipped, a "request" header owns every line through
   the next "end", anything else is one junk item. *)
let split text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let items = ref [] in
  let i = ref 0 in
  let len = Array.length lines in
  while !i < len do
    let line = String.trim lines.(!i) in
    if line = "" || line.[0] = '#' then incr i
    else
      match tokens line with
      | "request" :: _ ->
          let j = ref (!i + 1) in
          while !j < len && String.trim lines.(!j) <> "end" do
            incr j
          done;
          if !j >= len then failwith "workload: request without \"end\"";
          items := Req (Array.sub lines !i (!j - !i + 1)) :: !items;
          i := !j + 1
      | _ ->
          items := Junk lines.(!i) :: !items;
          incr i
  done;
  Array.of_list (List.rev !items)

(* ---------------- pinned inputs ----------------

   pins.txt records, for a reference seed and a held-out seed, the md5
   of each workload's generated bytes. Every run regenerates the
   reference seed and checks it, so an edit to Trace or Qo.Gen_inst
   that changes the streams fails the run instead of silently changing
   what is measured. *)

let pins_file = "perfbench/pins.txt"

type pins = { reference_seed : int; md5 : (string * int * string) list }

let read_pins () =
  let lines = In_channel.with_open_text pins_file In_channel.input_all |> String.split_on_char '\n' in
  let reference = ref None and md5 = ref [] in
  List.iter
    (fun l ->
      match tokens (String.trim l) with
      | [ "reference_seed"; s ] -> reference := Some (int_of_string s)
      | [ w; s; d ] when w.[0] <> '#' -> md5 := (w, int_of_string s, d) :: !md5
      | _ -> ())
    lines;
  match !reference with
  | Some reference_seed -> { reference_seed; md5 = !md5 }
  | None -> failwith (pins_file ^ ": missing reference_seed")

let pinned pins ~workload ~seed =
  List.find_map (fun (w, s, d) -> if w = workload && s = seed then Some d else None) pins.md5
