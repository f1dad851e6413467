(* The traced run: spans around the benchmark's own calls into each layer,
   plus deltas of the program's existing Mcs_obs.Metrics counters around
   them.  Spans are kept in memory and written out once, at the end.

   Flow phase spans come from the pass manager's existing Mcs_obs.Trace
   spans ("flow.<flow>.<phase>"), observed through Trace.set_hook while
   the engine executes the job; nothing inside the program changes. *)

module J = Mcs_engine.Job
module O = Mcs_engine.Outcome
module M = Mcs_obs.Metrics
module T = Mcs_obs.Trace

type span = {
  job : int;  (** spans of one job share this id *)
  name : string;
  t0 : float;
  t1 : float;
  mutable parent : int;  (** index into the span buffer; -1 for a root *)
}

type t = {
  mutable spans : span array;
  mutable n_spans : int;
  mutable jobs : int;
  sums : (string, float) Hashtbl.t;  (** per-layer totals over traced jobs *)
  per_job : (string * (string * float) list) Queue.t;
      (** job encoding and its counters, for the per-job table *)
}

let create () =
  { spans = [||]; n_spans = 0; jobs = 0; sums = Hashtbl.create 64;
    per_job = Queue.create () }

let add_span t s =
  if t.n_spans = Array.length t.spans then
    t.spans <-
      Array.append t.spans (Array.make (max 256 t.n_spans) s);
  t.spans.(t.n_spans) <- s;
  t.n_spans <- t.n_spans + 1;
  t.n_spans - 1

let bump t k v =
  Hashtbl.replace t.sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.sums k))

let sum t k = Option.value ~default:0.0 (Hashtbl.find_opt t.sums k)

(* Traced job spans: the benchmark's call [f] as a root span [name] with
   the job id [job]; returns the root's index and [f]'s result. *)
let timed t ~job ?(parent = -1) name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  (add_span t { job; name; t0; t1; parent }, r)

(* The program's counters each per-layer metric reads.
   core.subbus_attempts is not among them: the flow calls Subbus.search
   once per slot cap without touching the subbus.attempts counter, so the
   attempts are counted from the pass manager's spans (one
   "flow.ch6.connect" span per slot cap tried). *)
let counters =
  [ ("core.subbus_nodes", [ "subbus.search_nodes" ]);
    ("core.subbus_backtracks", [ "subbus.backtracks" ]);
    ("connect.heuristic_nodes", [ "heuristic.nodes" ]);
    ("connect.heuristic_backtracks", [ "heuristic.backtracks" ]);
    ("sched.ls_io_tests", [ "ls.io_feasibility_tests" ]);
    ("sched.ls_csteps", [ "ls.csteps" ]);
    ("sched.fds_force_evals", [ "fds.force_evals" ]);
    ("ilp.bb_nodes", [ "bb.nodes" ]);
    ("ilp.pivots", [ "fsimplex.pivots"; "simplex.pivots" ]);
    ("ilp.certify_ok", [ "ilp.certify.ok" ]);
    ("ilp.certify_fail", [ "ilp.certify.fail" ]);
    ("ilp.ratio_reductions", [ "ratio.reductions" ]);
    ("ilp.warm_hits", [ "ilp.warm.hits" ]);
    ("ilp.warm_misses", [ "ilp.warm.misses" ]) ]

let read_counters () =
  let snap = M.snapshot () in
  let c name = match List.assoc_opt name snap with Some (M.Counter n) -> n | _ -> 0 in
  List.map (fun (k, names) -> (k, List.fold_left (fun a n -> a + c n) 0 names)) counters

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* "flow.ch6.connect" -> Some "connect"; the whole-flow span "flow.ch6"
   and spans of other layers -> None. *)
let phase_class name =
  match String.split_on_char '.' name with
  | [ "flow"; _; phase ] ->
      let has p = String.length phase >= String.length p && String.sub phase 0 (String.length p) = p in
      Some
        (if has "schedule" then "schedule"
         else if has "connect" then "connect"
         else if has "baseline" then "baseline"
         else "other")
  | _ -> None

let is_whole_flow name =
  match String.split_on_char '.' name with [ "flow"; _ ] -> true | _ -> false

(* One job through the engine, traced: a root span per job, the
   engine's design resolution and its execution as children, and the
   program's own spans inside the execution, parented by nesting depth. *)
let exec t ~exec (job : J.t) =
  let id = t.jobs in
  t.jobs <- id + 1;
  let t0 = Unix.gettimeofday () in
  let root = add_span t { job = id; name = "job"; t0; t1 = t0; parent = -1 } in
  let r_idx, _ =
    timed t ~job:id ~parent:root "engine.resolve" (fun () -> J.resolve job.J.design)
  in
  bump t "engine.resolve_s" (t.spans.(r_idx).t1 -. t.spans.(r_idx).t0);
  let inner = ref [] in
  T.set_hook (Some (fun s -> inner := s :: !inner));
  let c0 = read_counters () and w0 = allocated_words () in
  let e_idx, o =
    Fun.protect ~finally:(fun () -> T.set_hook None)
      (fun () -> timed t ~job:id ~parent:root "engine.exec" (fun () -> exec job))
  in
  let w1 = allocated_words () and c1 = read_counters () in
  let e = t.spans.(e_idx) in
  (* Hook order is closing order: children close before their parent. *)
  let pending = ref [] in
  let flow_s = ref 0.0 and attempts = ref 0 in
  List.iter
    (fun (s : T.span) ->
      let idx =
        add_span t
          { job = id; name = s.T.span_name; t0 = s.T.span_t0;
            t1 = s.T.span_t0 +. s.T.span_dur; parent = e_idx }
      in
      let kids, rest = List.partition (fun (d, _) -> d = s.T.span_depth + 1) !pending in
      List.iter (fun (_, k) -> t.spans.(k).parent <- idx) kids;
      pending := (s.T.span_depth, idx) :: rest;
      (match phase_class s.T.span_name with
      | Some c -> bump t ("flow." ^ c ^ "_s") s.T.span_dur
      | None -> ());
      if s.T.span_name = "flow.ch6.connect" then incr attempts;
      if is_whole_flow s.T.span_name then flow_s := !flow_s +. s.T.span_dur)
    (List.rev !inner);
  bump t "engine.exec_self_s" (e.t1 -. e.t0 -. !flow_s);
  bump t "engine.alloc_words" (w1 -. w0);
  let deltas =
    ("core.subbus_attempts", float_of_int !attempts)
    :: List.map2 (fun (k, a) (_, b) -> (k, float_of_int (b - a))) c0 c1
  in
  List.iter (fun (k, v) -> bump t k v) deltas;
  Queue.push (J.to_string job, ("wall_ms", (e.t1 -. e.t0) *. 1000.0) :: deltas) t.per_job;
  let t1 = Unix.gettimeofday () in
  t.spans.(root) <- { (t.spans.(root)) with t1 };
  o

let mean t k = if t.jobs = 0 then 0.0 else sum t k /. float_of_int t.jobs

(* Per-layer metrics of the traced jobs, as (name, unit, value).  Counts
   and times are means per traced job, so they do not depend on how many
   jobs a run completed. *)
let metrics t =
  let per_job k = mean t k in
  let ms k = 1000.0 *. mean t k in
  let hits = sum t "ilp.warm_hits" and misses = sum t "ilp.warm_misses" in
  List.map (fun k -> (k, "count/job", per_job k))
    ("core.subbus_attempts"
    :: List.filter_map
         (fun (k, _) -> if k = "ilp.warm_hits" || k = "ilp.warm_misses" then None else Some k)
         counters)
  @ [ ("ilp.warm_hit_share", "ratio",
       if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
      ("flow.connect_ms", "ms/job", ms "flow.connect_s");
      ("flow.schedule_ms", "ms/job", ms "flow.schedule_s");
      ("flow.baseline_ms", "ms/job", ms "flow.baseline_s");
      ("engine.resolve_ms", "ms/job", ms "engine.resolve_s");
      ("engine.exec_ms", "ms/job", ms "engine.exec_self_s");
      ("engine.alloc_mwords", "Mwords/job", per_job "engine.alloc_words" /. 1e6) ]

let span_json t s =
  let module R = Mcs_obs.Report_json in
  let base = if t.n_spans = 0 then 0.0 else t.spans.(0).t0 in
  R.Obj
    [ ("job", R.Int s.job); ("name", R.Str s.name);
      ("start_ms", R.Float ((s.t0 -. base) *. 1000.0));
      ("end_ms", R.Float ((s.t1 -. base) *. 1000.0));
      ("parent", R.Int s.parent) ]

let write t ~path ~extra =
  let module R = Mcs_obs.Report_json in
  let spans = List.init t.n_spans (fun i -> span_json t t.spans.(i)) in
  let per_job =
    List.map
      (fun (j, cs) -> R.Obj (("job", R.Str j) :: List.map (fun (k, v) -> (k, R.Float v)) cs))
      (List.of_seq (Queue.to_seq t.per_job))
  in
  R.write_file path
    (R.Obj ([ ("v", R.Str "perfbench-trace/1"); ("spans", R.Arr spans);
              ("jobs", R.Arr per_job) ] @ extra))

(* The daemon's metrics. *)
let server_metrics =
  [ ("server.client_ms", "ms"); ("server.reply_ms", "ms"); ("server.wire_ms", "ms");
    ("server.wait_ms", "ms"); ("server.cache_hit_share", "ratio");
    ("server.coalesced_share", "ratio"); ("server.batch_mean", "jobs/batch");
    ("server.queue_depth_peak", "count"); ("server.respawns", "count");
    ("server.rejected", "count") ]

(* The in-process workloads have no daemon, so they print every
   server.* metric as 0. *)
let no_server = List.map (fun (k, u) -> (k, u, 0.0)) server_metrics

(* Tracing overhead: traced against untraced throughput of one run. *)
let overhead t ~untraced_jps ~traced_jps =
  [ ("trace.jobs_per_s", "1/s", traced_jps);
    ("trace.overhead_share", "ratio", 1.0 -. (traced_jps /. untraced_jps));
    ("trace.spans", "count", float_of_int t.n_spans) ]

(* The slowest traced jobs with their search and solver effort. *)
let print_top t n =
  let rows = List.of_seq (Queue.to_seq t.per_job) in
  let wall cs = List.assoc "wall_ms" cs in
  let rows = List.sort (fun (_, a) (_, b) -> compare (wall b) (wall a)) rows in
  Printf.printf "slowest traced jobs: wall_ms subbus_nodes heuristic_nodes bb_nodes pivots\n";
  List.iteri
    (fun i (j, cs) ->
      if i < n then
        Printf.printf "  %-44s %9.1f %8.0f %8.0f %7.0f %8.0f\n" j (wall cs)
          (List.assoc "core.subbus_nodes" cs) (List.assoc "connect.heuristic_nodes" cs)
          (List.assoc "ilp.bb_nodes" cs) (List.assoc "ilp.pivots" cs))
    rows
