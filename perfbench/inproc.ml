(* paper-grid and random-sweep: jobs run sequentially in this process
   through the engine's own executor (Mcs_engine.Pool.exec), with no
   result cache and no budget. *)

module J = Mcs_engine.Job
module O = Mcs_engine.Outcome

let now = Unix.gettimeofday

(* Touches every flow and the pin ILP once, so lazy set-up is paid before
   timing starts. *)
let warmup =
  [ "mcs-job/1|subbus-demo|ch3|r3|pl-"; "mcs-job/1|ar-simple|ch3|r2|pl-";
    "mcs-job/1|elliptic|ch4-unidir|r6|pl-"; "mcs-job/1|elliptic|ch5|r6|pl-";
    "mcs-job/1|elliptic|ch6|r6|pl-" ]

let job_list ~seed = function
  | Corpus.Paper_grid -> Corpus.paper_grid ~seed
  | Corpus.Random_sweep -> Corpus.random_sweep ~seed
  | Corpus.Serve_mix -> invalid_arg "serve-mix does not run in-process"

(* Corpus generation, design resolution and the warm-up. *)
let setup_once ~seed w =
  let jobs = Array.of_list (List.map Corpus.parse (job_list ~seed w)) in
  let penalty = Score.penalties () in
  Array.iter (fun j -> ignore (penalty j)) jobs;
  List.iter (fun s -> ignore (Mcs_engine.Pool.exec (Corpus.parse s))) warmup;
  (jobs, penalty)

type phase = {
  outcomes : O.t array;  (** first pass, by job index *)
  runs : (float * float) list array;
      (** every pass, by job index: start time and seconds taken *)
  extra : (float * float) list array;
      (** repeats of short jobs: seconds taken and the probe seconds around them *)
  passes : int;
  attempted : int;
  failed : int;
  mismatches : (string * string) list;
}

let same (a : O.t) (b : O.t) =
  O.status_label a.O.status = O.status_label b.O.status
  && a.O.pins = b.O.pins && a.O.pipe_length = b.O.pipe_length

(* A job that takes under [short_s] is timed [repeats] more times in the
   first pass, right after its counted run and from the same warm-start
   registry state; its latency is the median of all its runs.  A
   millisecond point measured once varied 5-26% (coefficient of variation)
   between processes.  Repeats are not counted as jobs and their time is
   not in the throughput, so the counted runs keep every cost a sweep
   pays.  Host speed moves within a tenth of a second, faster than the
   between-job probes follow, so each repeat is bracketed by two probes
   and carries their mean. *)
let short_s = 0.05
let repeats = 4

(* Runs [job] [repeats] times from the registry state [before], then
   puts back the state its counted run left.  Returns each repeat's
   seconds and the probe seconds around it. *)
let repeat_short ~probe ~before job =
  let after = Mcs_ilp.Warm.export_all () in
  let last = ref (Hostspeed.once probe) in
  let times =
    List.init repeats (fun _ ->
        Mcs_ilp.Warm.clear ();
        Mcs_ilp.Warm.import before;
        let t0 = now () in
        ignore (Mcs_engine.Pool.exec job);
        let dt = now () -. t0 in
        let p0 = !last in
        last := Hostspeed.once probe;
        (dt, (p0 +. !last) /. 2.0))
  in
  Mcs_ilp.Warm.clear ();
  Mcs_ilp.Warm.import after;
  times

(* Whole passes over the job list, so every timed phase has the same job
   mix.  Each pass starts from an empty cross-solve warm-start registry,
   as a fresh process would: a pass over points the registry has already
   seen runs about 1.8 times faster.  Another pass starts while it is
   expected to end closer to [seconds] than stopping now would, taking
   the last pass's counted runs (not its repeats and probes) as the
   estimate; at least one pass always runs. *)
let timed_phase ?(repeat = true) ~seconds ~probe ~exec (jobs : J.t array) =
  let n = Array.length jobs in
  let first = Array.make n None and runs = Array.make n [] and extra = Array.make n [] in
  let failed = ref 0 and mismatches = ref [] in
  let start = now () in
  let rec loop passes busy =
    let elapsed = now () -. start in
    if passes > 0 && elapsed +. (busy /. 2.0) > seconds then (passes, elapsed)
    else begin
      Mcs_ilp.Warm.clear ();
      let p0 = now () and counted = ref 0.0 in
      Array.iteri
        (fun i job ->
          Hostspeed.between_jobs probe;
          let before = if repeat && passes = 0 then Mcs_ilp.Warm.export_all () else [] in
          let t0 = now () in
          let o = exec job in
          let dt = now () -. t0 in
          runs.(i) <- (t0, dt) :: runs.(i);
          counted := !counted +. dt;
          if repeat && passes = 0 && dt < short_s then
            extra.(i) <- repeat_short ~probe ~before job;
          if Score.failed o then incr failed;
          match first.(i) with
          | None -> first.(i) <- Some o
          | Some o0 ->
              if not (same o0 o) then
                mismatches :=
                  (J.to_string job, "outcome differs between passes") :: !mismatches)
        jobs;
      Printf.printf "pass %d: %.3f s\n%!" (passes + 1) (now () -. p0);
      loop (passes + 1) !counted
    end
  in
  let passes, _ = loop 0 0.0 in
  { outcomes = Array.map Option.get first; runs; extra; passes;
    attempted = n * passes; failed = !failed; mismatches = !mismatches }

let as_measured ~t0:_ ~dt = dt

(* Throughput over the time spent inside the engine's calls (probes
   excluded), each call's duration passed through [scale]. *)
let jobs_per_s ?(scale = as_measured) p =
  let busy =
    Array.fold_left (List.fold_left (fun a (t0, dt) -> a +. scale ~t0 ~dt)) 0.0 p.runs
  in
  float_of_int (p.attempted - p.failed) /. busy

(* Per-job latency is the job's median over all its runs, so the latency
   sample is one value per distinct job whatever the pass count. *)
let e2e ?probe ~setup_s ~penalty ~peak_rss_mb ~verify_failures p =
  let n = Array.length p.outcomes in
  let scale, local =
    match probe with
    | None -> (as_measured, fun (dt, _) -> dt)
    | Some pr -> (Hostspeed.scale pr, fun (dt, probe_s) -> Hostspeed.scale_local ~probe_s dt)
  in
  let per_job =
    Array.to_list
      (Array.map2
         (fun rs xs ->
           1000.0
           *. Stats.median (List.map (fun (t0, dt) -> scale ~t0 ~dt) rs @ List.map local xs))
         p.runs p.extra)
  in
  let feasible = Array.fold_left (fun a o -> if O.is_feasible o then a + 1 else a) 0 p.outcomes in
  let cost =
    Array.fold_left (fun a (o : O.t) -> a + Score.cost ~penalty:(penalty o.O.job) o) 0 p.outcomes
  in
  { Score.setup_s; jobs_per_s = jobs_per_s ~scale p; job_p50_ms = Stats.median per_job;
    tail = Stats.tail per_job;
    answered_share = Score.share (p.attempted - p.failed) p.attempted;
    feasible_share = Score.share feasible n;
    verified_share = Score.share (feasible - verify_failures) feasible;
    quality_cost = float_of_int cost /. float_of_int n;
    peak_rss_mb }
