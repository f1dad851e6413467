(* One run of a workload: set-up, the timed phase, the optional traced
   phase, and re-verification of every output outside both. *)

module J = Mcs_engine.Job
module O = Mcs_engine.Outcome

type result = {
  e2e : Score.e2e;  (** reported: in reference-host times *)
  raw : Score.e2e;  (** as measured *)
  host_factor : float;  (** the run's overall probe factor *)
  layers : (string * string * float) list;  (** empty unless traced *)
  attempted : int;
  failed : int;
  errors : (string * string) list;  (** job encoding, what failed *)
}

(* Set-up runs [rounds] times, a few probes before each; returns every
   round's start and duration, and the last round's result. *)
let repeat_setup ~probe rounds f =
  let times = ref [] and last = ref None in
  for _ = 1 to rounds do
    Hostspeed.sample probe 3;
    let t0 = Unix.gettimeofday () in
    last := Some (f ());
    times := (t0, Unix.gettimeofday () -. t0) :: !times
  done;
  (!times, Option.get !last)

(* The median round, through [scale]. *)
let setup_s ?(scale = Inproc.as_measured) times =
  Stats.median (List.map (fun (t0, dt) -> scale ~t0 ~dt) times)

let setup_rounds = 5

let spans_path ~out ~seed w =
  Filename.concat out (Printf.sprintf "spans-%s-%d.json" (Corpus.workload_name w) seed)

let write_spans lt ~path ~extra =
  match Layers.write lt ~path ~extra with
  | Ok () -> Printf.printf "spans written to %s\n" path
  | Error m -> Printf.printf "spans not written: %s\n" m

let print_infeasible outcomes =
  Array.iter
    (fun (o : O.t) ->
      match o.O.status with
      | O.Infeasible m -> Printf.printf "infeasible %s: %s\n" (J.to_string o.O.job) m
      | O.Feasible | O.Crashed _ | O.Timed_out -> ())
    outcomes

(* The traced phase must reproduce the untraced phase's outcomes. *)
let traced_mismatches (p : Inproc.phase) (tp : Inproc.phase) =
  tp.Inproc.mismatches
  @ List.filter_map Fun.id
      (Array.to_list
         (Array.map2
            (fun a b ->
              if Inproc.same a b then None
              else Some (J.to_string a.O.job, "traced outcome differs"))
            p.Inproc.outcomes tp.Inproc.outcomes))

let in_process ~seed ~seconds ~trace ~out w =
  let probe = Hostspeed.create () in
  let setup_times, (jobs, penalty) =
    repeat_setup ~probe setup_rounds (fun () -> Inproc.setup_once ~seed w)
  in
  let exec j = Mcs_engine.Pool.exec j in
  let p = Inproc.timed_phase ~seconds ~probe ~exec jobs in
  let peak_rss_mb = Score.peak_rss_mb "self" in
  Printf.printf "%d jobs, %d passes\n" (Array.length jobs) p.Inproc.passes;
  let layers, traced =
    if not trace then ([], None)
    else begin
      let lt = Layers.create () in
      let tp =
        Inproc.timed_phase ~repeat:false ~seconds ~probe ~exec:(Layers.exec lt ~exec) jobs
      in
      let scale = Hostspeed.scale probe in
      let untraced_jps = Inproc.jobs_per_s ~scale p
      and traced_jps = Inproc.jobs_per_s ~scale tp in
      Layers.print_top lt 12;
      write_spans lt ~path:(spans_path ~out ~seed w)
        ~extra:[ ("untraced_jobs_per_s", Mcs_obs.Report_json.Float untraced_jps) ];
      print_endline "server.* metrics are 0: this workload runs no daemon";
      ( Layers.metrics lt @ Layers.no_server
        @ Layers.overhead lt ~untraced_jps ~traced_jps,
        Some tp )
    end
  in
  print_infeasible p.Inproc.outcomes;
  let feasible = List.filter O.is_feasible (Array.to_list p.Inproc.outcomes) in
  let verify_errors = Verify.all feasible in
  let traced_errors = Option.fold ~none:[] ~some:(traced_mismatches p) traced in
  let extra f = match traced with None -> 0 | Some tp -> f tp in
  let verify_failures = List.length verify_errors in
  let scale = Hostspeed.scale probe in
  {
    e2e =
      Inproc.e2e ~probe ~setup_s:(setup_s ~scale setup_times) ~penalty ~peak_rss_mb
        ~verify_failures p;
    raw = Inproc.e2e ~setup_s:(setup_s setup_times) ~penalty ~peak_rss_mb ~verify_failures p;
    host_factor = Hostspeed.factor probe;
    layers;
    attempted = p.Inproc.attempted + extra (fun tp -> tp.Inproc.attempted);
    failed = p.Inproc.failed + extra (fun tp -> tp.Inproc.failed);
    errors = p.Inproc.mismatches @ verify_errors @ traced_errors;
  }
