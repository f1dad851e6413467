(* The nine end-to-end metrics and the pieces they are computed from. *)

module J = Mcs_engine.Job
module O = Mcs_engine.Outcome
module B = Mcs_cdfg.Benchmarks

(* A non-feasible job costs more than any feasible result for its design
   can: every feasible result fits the design's pin budgets, and the
   objective is 1000 * pins + pipe length.  So a search that newly finds
   a solution lowers the cost. *)
let penalty (d : B.design) =
  let total l = List.fold_left (fun a (_, n) -> a + n) 0 l in
  1000 * (max (total d.B.pins_unidir) (total d.B.pins_bidir) + 1)

(* Mcs_refine.objective, read off the outcome. *)
let objective (o : O.t) = (1000 * O.pins_total o) + o.O.pipe_length

let cost ~penalty (o : O.t) = if O.is_feasible o then objective o else penalty

let failed (o : O.t) =
  match o.O.status with
  | O.Feasible | O.Infeasible _ -> false
  | O.Crashed _ | O.Timed_out -> true

(* Designs resolved once per distinct design encoding. *)
let penalties () =
  let tbl = Hashtbl.create 64 in
  fun (job : J.t) ->
    let key = J.design_to_string job.J.design in
    match Hashtbl.find_opt tbl key with
    | Some p -> p
    | None ->
        let p =
          match J.resolve job.J.design with
          | Ok d -> penalty d
          | Error m -> invalid_arg ("unresolvable design " ^ key ^ ": " ^ m)
        in
        Hashtbl.add tbl key p;
        p

type e2e = {
  setup_s : float;
  jobs_per_s : float;
  job_p50_ms : float;
  tail : Stats.tail;
  answered_share : float;
  feasible_share : float;
  verified_share : float;
  quality_cost : float;
  peak_rss_mb : float;
}

let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let e2e_metrics e =
  [ ("setup_s", "s", e.setup_s);
    ("jobs_per_s", "1/s", e.jobs_per_s);
    ("job_p50_ms", "ms", e.job_p50_ms);
    ("job_tail_ms", "ms", e.tail.Stats.value);
    ("answered_share", "ratio", e.answered_share);
    ("feasible_share", "ratio", e.feasible_share);
    ("verified_share", "ratio", e.verified_share);
    ("quality_cost", "cost/job", e.quality_cost);
    ("peak_rss_mb", "MB", e.peak_rss_mb) ]

(* VmHWM of a process, in MB; 0 when /proc is unavailable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
