(* The benchmark's own tests: determinism of its inputs and of every
   deterministic output, the tail-percentile rule, and the direction of
   the quality cost. *)

open Perfbench
module J = Mcs_engine.Job
module O = Mcs_engine.Outcome

let check = Alcotest.check

let test_same_seed_same_list () =
  check Alcotest.(list string) "random-sweep" (Corpus.random_sweep ~seed:7)
    (Corpus.random_sweep ~seed:7);
  check Alcotest.(list string) "paper-grid" (Corpus.paper_grid ~seed:7)
    (Corpus.paper_grid ~seed:7);
  check Alcotest.(list string) "serve-mix" (Corpus.take_stream ~seed:7 500)
    (Corpus.take_stream ~seed:7 500)

let test_other_seed_other_list () =
  check Alcotest.bool "random-sweep" false
    (Corpus.random_sweep ~seed:7 = Corpus.random_sweep ~seed:8);
  check Alcotest.bool "paper-grid" false (Corpus.paper_grid ~seed:7 = Corpus.paper_grid ~seed:8);
  check Alcotest.bool "serve-mix" false
    (Corpus.take_stream ~seed:7 500 = Corpus.take_stream ~seed:8 500)

let test_serve_stream_repeats () =
  let s = Corpus.take_stream ~seed:3 2000 in
  let distinct = List.length (List.sort_uniq compare s) in
  let repeats = float_of_int (2000 - distinct) /. 2000.0 in
  check Alcotest.bool "repeat share near its setting" true
    (repeats > Corpus.repeat_share -. 0.05 && repeats < Corpus.repeat_share +. 0.1)

(* One traced pass over a cheap slice of the serving corpus. *)
let run_once jobs =
  let lt = Layers.create () in
  let p =
    Inproc.timed_phase ~seconds:0.0 ~probe:(Hostspeed.create ()) ~exec:(Layers.exec lt ~exec:(fun j -> Mcs_engine.Pool.exec j)) jobs
  in
  let feasible = List.filter O.is_feasible (Array.to_list p.Inproc.outcomes) in
  let errors = Verify.all ~domains:1 feasible in
  let e =
    Inproc.e2e ~setup_s:0.0 ~penalty:(Score.penalties ()) ~peak_rss_mb:0.0
      ~verify_failures:(List.length errors) p
  in
  let counts =
    List.filter (fun (_, unit, _) -> unit = "count/job" || unit = "ratio") (Layers.metrics lt)
  in
  (errors, e, counts)

let test_same_seed_same_results () =
  let jobs = Array.of_list (List.map Corpus.parse (Corpus.take_stream ~seed:5 16)) in
  let err1, e1, c1 = run_once jobs and err2, e2, c2 = run_once jobs in
  check Alcotest.int "no verification failures" 0 (List.length err1 + List.length err2);
  check (Alcotest.float 0.0) "feasible_share" e1.Score.feasible_share e2.Score.feasible_share;
  check (Alcotest.float 0.0) "verified_share" e1.Score.verified_share e2.Score.verified_share;
  check (Alcotest.float 0.0) "quality_cost" e1.Score.quality_cost e2.Score.quality_cost;
  List.iter2
    (fun (k, _, a) (_, _, b) -> check (Alcotest.float 0.0) k a b)
    c1 c2

let test_tail_percentile () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail (xs 1000) in
  check (Alcotest.float 0.0) "1000 samples: p99" 99.0 t.Stats.percentile;
  check (Alcotest.float 0.0) "p99 of 1..1000" 990.0 t.Stats.value;
  check Alcotest.int "10 beyond" 10 t.Stats.beyond;
  check (Alcotest.float 0.0) "999 samples: p95" 95.0 (Stats.tail (xs 999)).Stats.percentile;
  check (Alcotest.float 0.0) "10000 samples: p99.9" 99.9 (Stats.tail (xs 10000)).Stats.percentile;
  check (Alcotest.float 0.0) "45 samples: p75" 75.0 (Stats.tail (xs 45)).Stats.percentile;
  List.iter
    (fun n ->
      let t = Stats.tail (xs n) in
      check Alcotest.bool "at least 10 beyond" true (n < 20 || t.Stats.beyond >= 10);
      match
        List.find_opt (fun p -> float_of_int p /. 10.0 > t.Stats.percentile) (List.rev Stats.ladder)
      with
      | Some higher when n >= 20 ->
          check Alcotest.bool "next percentile up has fewer than 10 beyond" true
            (n - Stats.rank higher n < 10)
      | _ -> ())
    [ 20; 21; 99; 100; 101; 199; 200; 201; 1500; 20000 ]

let test_flip_lowers_quality_cost () =
  let job = Corpus.parse "mcs-job/1|random:1:3:16|ch6|r4|pl-" in
  let outcome status pins pipe_length =
    { O.job; status; pins; pipe_length; fu_count = 0; check = None; degraded = [];
      solver = None; refine = None }
  in
  let phase o =
    { Inproc.outcomes = [| o |]; runs = [| [ (0.0, 1.0) ] |]; extra = [| [] |]; passes = 1;
      attempted = 1; failed = 0; mismatches = [] }
  in
  let cost o =
    (Inproc.e2e ~setup_s:0.0 ~penalty:(Score.penalties ()) ~peak_rss_mb:0.0
       ~verify_failures:0 (phase o)).Score.quality_cost
  in
  let before = cost (outcome (O.Infeasible "no connection") [] 0) in
  (* The largest feasible result the design's pin budgets allow. *)
  let d = Result.get_ok (J.resolve job.J.design) in
  let worst = outcome O.Feasible d.Mcs_cdfg.Benchmarks.pins_bidir 999 in
  check Alcotest.bool "finding a solution lowers the cost" true (cost worst < before)

let () =
  Alcotest.run "perfbench"
    [ ( "corpus",
        [ Alcotest.test_case "same seed, same job list" `Quick test_same_seed_same_list;
          Alcotest.test_case "other seed, other job list" `Quick test_other_seed_other_list;
          Alcotest.test_case "serve-mix repeat share" `Quick test_serve_stream_repeats ] );
      ( "metrics",
        [ Alcotest.test_case "same seed, same results and counts" `Quick
            test_same_seed_same_results;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "infeasible to feasible lowers quality_cost" `Quick
            test_flip_lowers_quality_cost ] ) ]
