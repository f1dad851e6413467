(* perfbench: one workload, one seed, one timed phase; prints every
   end-to-end metric (or, with --trace 1, every per-layer metric) and a
   final one-line JSON result.  Exits 1 when any output fails
   verification or any request goes unanswered.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--serve-bin PATH] [--out DIR] *)

open Perfbench
module R = Mcs_obs.Report_json
module J = Mcs_engine.Job
module O = Mcs_engine.Outcome

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-grid|random-sweep|serve-mix --seed N \
     --seconds S --trace 0|1 [--serve-bin PATH] [--out DIR]";
  exit 2

type args = {
  workload : Corpus.workload;
  seed : int;
  seconds : float;
  trace : bool;
  serve_bin : string;
  out : string;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref false and serve_bin = ref "_build/default/bin/mcs_serve.exe"
  and out = ref "perfbench/out" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Corpus.workload_of_string v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--serve-bin" :: v :: rest -> serve_bin := v; go rest
    | "--out" :: v :: rest -> out := v; go rest
    | a :: _ -> prerr_endline ("perfbench: bad argument " ^ a); usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds when seconds > 0.0 ->
      { workload; seed; seconds; trace = !trace; serve_bin = !serve_bin; out = !out }
  | _ -> usage ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let metrics_json ms =
  R.Obj (List.map (fun (k, u, v) -> (k, R.Obj [ ("value", R.Float v); ("unit", R.Str u) ])) ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (k, u, v) -> Printf.printf "  %-30s %16.6g %s\n" k v u) ms

let report (r : Workload.result) =
  let tail = r.Workload.e2e.Score.tail in
  Printf.printf "job_tail_ms is p%g of %d per-job samples (%d beyond it)\n"
    tail.Stats.percentile tail.Stats.samples tail.Stats.beyond;
  List.iter (fun (j, m) -> Printf.printf "VERIFY FAILED %s: %s\n" j m) r.Workload.errors;
  Printf.printf "host speed factor %.4f (probe reference %.1f ms over measured median)\n"
    r.Workload.host_factor (Hostspeed.reference_s *. 1000.0);
  print_table "end-to-end, as measured" (Score.e2e_metrics r.Workload.raw);
  print_table "end-to-end, reported (probe-scaled times; serve-mix: the tail only)" (Score.e2e_metrics r.Workload.e2e);
  if r.Workload.layers <> [] then print_table "per-layer (traced run)" r.Workload.layers;
  let correct = r.Workload.errors = [] && r.Workload.failed = 0 in
  let shown = if r.Workload.layers <> [] then r.Workload.layers else Score.e2e_metrics r.Workload.e2e in
  print_endline
    (R.to_string
       (R.Obj
          [ ("correct", R.Bool correct); ("attempted", R.Int r.Workload.attempted);
            ("failed", R.Int r.Workload.failed); ("metrics", metrics_json shown) ]));
  if not correct then exit 1

let () =
  let a = parse_args () in
  mkdir_p a.out;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!"
    (Corpus.workload_name a.workload) a.seed a.seconds (if a.trace then 1 else 0);
  let r =
    match a.workload with
    | Corpus.Paper_grid | Corpus.Random_sweep ->
        Workload.in_process ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~out:a.out a.workload
    | Corpus.Serve_mix ->
        Serve.run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace ~out:a.out
          ~serve_bin:a.serve_bin
  in
  report r
