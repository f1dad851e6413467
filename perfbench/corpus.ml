(* The benchmark's inputs: every workload is a list of canonical
   [mcs-job/1] strings drawn from the seed alone, so the program under test
   receives only generated job encodings. *)

module J = Mcs_engine.Job

type workload = Paper_grid | Random_sweep | Serve_mix

let workloads =
  [ ("paper-grid", Paper_grid); ("random-sweep", Random_sweep);
    ("serve-mix", Serve_mix) ]

let workload_of_string s = List.assoc_opt s workloads
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let rng ~seed w =
  let salt = match w with Paper_grid -> 11 | Random_sweep -> 23 | Serve_mix -> 37 in
  Random.State.make [| seed; salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The seed orders designs; each design's points stay together in grid
   order (flows, then rates ascending), the order the engine's own sweeps
   use.  Within a design the cross-solve warm-start registry chains one
   rate's pin ILP into the next, and that chain is worth up to 1.5x on a
   rate-4 point, so shuffling points individually would make throughput
   depend on the seed. *)
let shuffle_designs st points =
  let design s = List.nth (String.split_on_char '|' s) 1 in
  let order = shuffle st (List.sort_uniq compare (List.map design points)) in
  List.concat_map (fun d -> List.filter (fun s -> design s = d) points) order

let enc design flow rate = J.to_string (J.make ~design ~flow ~rate ())

(* Chapter 3 rejects any design that is not a simple partitioning before
   doing work, so the grid keeps only the flows that accept each design. *)
let accepts (d : Mcs_cdfg.Benchmarks.design) = function
  | J.Ch3 -> Mcs_core.Simple_part.is_simple d.Mcs_cdfg.Benchmarks.cdfg
  | J.Ch4_unidir | J.Ch4_bidir | J.Ch5 | J.Ch6 -> true

let paper_points () =
  List.concat_map
    (fun (name, mk) ->
      let d = mk () in
      List.concat_map
        (fun fl ->
          if accepts d fl then
            List.map (enc (J.Named name) fl) d.Mcs_cdfg.Benchmarks.rates
          else [])
        J.all_flows)
    J.named_designs

(* The seed only orders the grid: the paper's evaluation is a fixed set of
   design points, cap-hitting searches included. *)
let paper_grid ~seed = shuffle_designs (rng ~seed Paper_grid) (paper_points ())

(* random-sweep is a fixed stratified corpus of generated designs
   (generator seeds 1..8 in every size stratum); the seed orders it.  A
   fresh draw per seed would not do: ch6 and rate-4 ILP costs are
   heavy-tailed (coefficient of variation about 1 per job), so the job mix
   alone would move throughput by 10-30% from seed to seed at any corpus
   size that fits one run. *)
let random_sizes = [ (3, 16); (4, 24); (4, 32); (5, 40) ]
let random_flows = [ J.Ch4_unidir; J.Ch4_bidir; J.Ch5; J.Ch6 ]
let rsimple_sizes = [ (3, 8); (4, 10); (5, 10) ]
let rsimple_rates = [ 2; 3; 4 ]
let designs_per_size = 8

let random_points () =
  let seeds = List.init designs_per_size (fun i -> i + 1) in
  List.concat_map
    (fun (n_partitions, n_ops) ->
      List.concat_map
        (fun seed ->
          let d = J.Random { seed; n_partitions; n_ops } in
          List.map (fun fl -> enc d fl 4) random_flows)
        seeds)
    random_sizes
  @ List.concat_map
      (fun (n_partitions, ops_per_chip) ->
        List.concat_map
          (fun seed ->
            let d = J.Random_simple { seed; n_partitions; ops_per_chip } in
            List.map (enc d J.Ch3) rsimple_rates)
          seeds)
      rsimple_sizes

let random_sweep ~seed = shuffle_designs (rng ~seed Random_sweep) (random_points ())

(* serve-mix: an endless seeded request stream of millisecond points.
   The shares below are the benchmark's assumptions, not measured user
   traffic; the repository records one serving shape, the E-serve
   session in bench/main.ml (half of its 20 requests repeat: 5 duplicate
   an in-flight point, 5 a settled one), which is too short to time.
   [repeat_share] of the requests repeat an earlier one, standing for
   clients that resubmit: [coalesce_share] the request just before
   (usually still in flight on the other connection, so the daemon
   coalesces them), the rest an older one (a cache read).  Everything
   else is a point never requested before in the stream (a cache
   write), except that the bundled designs' cheap points recur by
   construction.  E-serve is a deduplication test, not a traffic model
   either; its half of repeats would leave most replies cached or
   coalesced (at 30%, with the recurring paper points, 37% already are),
   so less of the load would reach the daemon's execution path. *)
let repeat_share = 0.3
let coalesce_share = 0.1

(* The paper points whose connection search burns its node cap (seconds
   each) belong to paper-grid, not to the serving mix. *)
let paper_heavy =
  [ "mcs-job/1|ar-simple|ch4-unidir|r2|pl-";
    "mcs-job/1|ar-simple|ch4-bidir|r2|pl-";
    "mcs-job/1|ar-simple|ch6|r2|pl-";
    "mcs-job/1|ar-general|ch4-unidir|r3|pl-";
    "mcs-job/1|ar-general|ch6|r3|pl-";
    "mcs-job/1|ar-general|ch6|r4|pl-";
    "mcs-job/1|ar-general|ch6|r5|pl-" ]

let gen_seed st = 1 + Random.State.int st 999_999

type stream = {
  st : Random.State.t;
  paper : string array;
  mutable history : string array;
  mutable len : int;
}

let stream ~seed =
  let paper =
    Array.of_list
      (List.filter (fun j -> not (List.mem j paper_heavy)) (paper_points ()))
  in
  { st = rng ~seed Serve_mix; paper; history = Array.make 1024 ""; len = 0 }

(* A fresh point, also by assumption: 1 in 10 a bundled paper point (few
   and recurring, so kept rare), 4 in 10 a generated general design
   through ch4/ch5 (the search and scheduling path), 5 in 10 a generated
   simple design through ch3 (the pin ILP path). *)
let fresh st paper =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  match Random.State.int st 10 with
  | 0 -> paper.(Random.State.int st (Array.length paper))
  | 1 | 2 | 3 | 4 ->
      let n_partitions, n_ops = pick [ (3, 16); (4, 24) ] in
      let d = J.Random { seed = gen_seed st; n_partitions; n_ops } in
      enc d (pick [ J.Ch4_unidir; J.Ch4_bidir; J.Ch5 ]) 4
  | _ ->
      let (n_partitions, ops_per_chip), rates =
        pick [ ((3, 8), [ 2; 3; 4 ]); ((4, 10), [ 2; 3 ]) ]
      in
      let d = J.Random_simple { seed = gen_seed st; n_partitions; ops_per_chip } in
      enc d J.Ch3 (pick rates)

let next s =
  let u = Random.State.float s.st 1.0 in
  let j =
    if s.len > 0 && u < coalesce_share then s.history.(s.len - 1)
    else if s.len > 0 && u < repeat_share then
      s.history.(Random.State.int s.st s.len)
    else fresh s.st s.paper
  in
  if s.len = Array.length s.history then
    s.history <- Array.append s.history (Array.make s.len "");
  s.history.(s.len) <- j;
  s.len <- s.len + 1;
  j

let take_stream ~seed n =
  let s = stream ~seed in
  List.init n (fun _ -> next s)

let parse s =
  match J.of_string s with
  | Ok j -> j
  | Error m -> invalid_arg (Printf.sprintf "corpus: bad job %S: %s" s m)
