(* Differential tests for the connection searches: the incremental
   [Subbus.search] (Ch. 6) and [Heuristic.search] (Ch. 4) against the
   list-based reference implementations kept in [Ref_subbus] and
   [Ref_heuristic].  Both sides must return the same outcome, the same bus
   structure and assignment, and charge the same node and backtrack
   counters — the same depth-first tree, visited in the same order. *)

open Mcs_cdfg
open Mcs_connect
module SB = Mcs_core.Subbus
module F = Mcs_flow.Flow
module Diag = Mcs_flow.Diag
module M = Mcs_obs.Metrics
module Budget = Mcs_resilience.Budget

let subbus_counters =
  [ "subbus.search_nodes"; "subbus.backtracks"; "subbus.retired_buses" ]

let heuristic_counters = [ "heuristic.nodes"; "heuristic.backtracks" ]

(* [f ()]'s outcome (a raised budget exhaustion included) and the deltas
   of the named counters. *)
let with_deltas names f =
  let read () = List.map (fun n -> M.count (M.counter n)) names in
  let before = read () in
  let r = try Ok (f ()) with Budget.Out_of_budget e -> Error e in
  (r, List.map2 ( - ) (read ()) before)

let same_deltas what names ours theirs =
  List.iter2
    (fun name (a, b) ->
      if a <> b then
        Alcotest.failf "%s: %s is %d, the reference charges %d" what name a b)
    names
    (List.combine ours theirs)

let cons_for mode (d : Benchmarks.design) ~rate =
  match mode with
  | Connection.Unidir -> Benchmarks.constraints_for d ~rate
  | Connection.Bidir -> Benchmarks.constraints_for_bidir d ~rate

let mode_name = function Connection.Unidir -> "unidir" | Bidir -> "bidir"

(* ---- Ch. 6 sub-bus search ---- *)

let subbus_agree ?budget ?(what = "subbus") cdfg cons ~rate ~slot_cap =
  let budget () =
    match budget with Some mk -> mk () | None -> Budget.unlimited
  in
  let ours, our_deltas =
    with_deltas subbus_counters (fun () ->
        SB.search ~budget:(budget ()) cdfg cons ~rate ~slot_cap ())
  in
  let theirs, their_deltas =
    with_deltas subbus_counters (fun () ->
        Ref_subbus.search ~budget:(budget ()) cdfg cons ~rate ~slot_cap ())
  in
  same_deltas what subbus_counters our_deltas their_deltas;
  (match (ours, theirs) with
  | Ok (Ok a), Ok (Ok b) ->
      if a <> b then Alcotest.failf "%s: buses or assignment differ" what
  | Ok (Error err), Ok (Error _) -> (
      let nodes = List.hd our_deltas in
      match err with
      | SB.Exhausted e ->
          if e.Budget.spent <> nodes || nodes <= e.Budget.limit then
            Alcotest.failf "%s: exhausted after %d of %d nodes, charged %d"
              what e.Budget.spent e.Budget.limit nodes
      | SB.Infeasible ->
          if nodes > 200_000 then
            Alcotest.failf "%s: infeasible past the node limit" what)
  | Error a, Error b ->
      if a <> b then Alcotest.failf "%s: budget exhausted differently" what
  | _ -> Alcotest.failf "%s: outcomes differ" what);
  ours

(* ---- Ch. 4 heuristic search ---- *)

(* Observable wiring of a connection: every port width of every bus. *)
let wiring conn =
  let n = Connection.n_partitions conn in
  List.init (Connection.n_buses conn) (fun h ->
      List.init (n + 1) (fun p ->
          ( Connection.out_width conn ~bus:h ~partition:p,
            Connection.in_width conn ~bus:h ~partition:p )))

let heuristic_agree ?budget ?(what = "heuristic") cdfg cons ~rate ~mode
    ~slot_cap =
  let budget () =
    match budget with Some mk -> mk () | None -> Budget.unlimited
  in
  let ours, our_deltas =
    with_deltas heuristic_counters (fun () ->
        Heuristic.search ~budget:(budget ()) cdfg cons ~rate ~mode ~slot_cap
          ())
  in
  let theirs, their_deltas =
    with_deltas heuristic_counters (fun () ->
        Ref_heuristic.search ~budget:(budget ()) cdfg cons ~rate ~mode
          ~slot_cap ())
  in
  same_deltas what heuristic_counters our_deltas their_deltas;
  match (ours, theirs) with
  | Ok (Ok a), Ok (Ok b) ->
      if a.Heuristic.assign <> b.Heuristic.assign then
        Alcotest.failf "%s: assignments differ" what;
      if wiring a.Heuristic.conn <> wiring b.Heuristic.conn then
        Alcotest.failf "%s: bus wiring differs" what
  | Ok (Error a), Ok (Error b) ->
      if a <> b then
        Alcotest.failf "%s: %s vs the reference's %s" what
          (Heuristic.error_message a)
          (Heuristic.error_message b)
  | _ -> Alcotest.failf "%s: outcomes differ" what

(* ---- bundled designs: every paper rate, slot cap and port mode ---- *)

let designs =
  [
    ("ar-simple", Benchmarks.ar_simple);
    ("ar-general", Benchmarks.ar_general);
    ("elliptic", Benchmarks.elliptic);
    ("cond-demo", Benchmarks.cond_demo);
    ("subbus-demo", Benchmarks.subbus_demo);
  ]

let grid check =
  List.iter
    (fun (name, mk) ->
      let d = mk () in
      List.iter
        (fun rate ->
          List.iter
            (fun mode ->
              let cons = cons_for mode d ~rate in
              for slot_cap = 1 to rate do
                let what =
                  Printf.sprintf "%s r%d %s cap %d" name rate (mode_name mode)
                    slot_cap
                in
                check ~what d.Benchmarks.cdfg cons ~rate ~mode ~slot_cap
              done)
            [ Connection.Unidir; Connection.Bidir ])
        d.Benchmarks.rates)
    designs

let test_subbus_bundled () =
  grid (fun ~what cdfg cons ~rate ~mode:_ ~slot_cap ->
      ignore (subbus_agree ~what cdfg cons ~rate ~slot_cap))

let test_heuristic_bundled () =
  grid (fun ~what cdfg cons ~rate ~mode ~slot_cap ->
      heuristic_agree ~what cdfg cons ~rate ~mode ~slot_cap)

(* The capped ar-general point really hits the node limit, and says so. *)
let test_subbus_cap_is_typed () =
  let d = Benchmarks.ar_general () in
  let cons = Benchmarks.constraints_for_bidir d ~rate:3 in
  match SB.search d.Benchmarks.cdfg cons ~rate:3 ~slot_cap:2 () with
  | Error (SB.Exhausted e) ->
      Alcotest.(check int) "limit" 200_000 e.Budget.limit;
      Alcotest.(check bool) "spent past the limit" true
        (e.Budget.spent > 200_000)
  | Error SB.Infeasible -> Alcotest.fail "node limit reported as infeasible"
  | Ok _ -> Alcotest.fail "expected the node limit"

(* The flow keeps sweeping past an undecided cap, with the same result,
   and names the cap in a warning. *)
let test_flow_reports_undecided_cap () =
  let d = Benchmarks.ar_general () in
  let spec = F.spec_of_design ~flow:F.Ch6 d ~rate:3 in
  match F.run F.Ch6 spec with
  | Error dg -> Alcotest.failf "ch6 failed: %s" (Diag.message dg)
  | Ok r ->
      Alcotest.(check (pair int int)) "pins / pipe" (340, 9)
        (F.pins_total r, r.F.pipe_length);
      Alcotest.(check bool) "not degraded" false (F.is_degraded r);
      let undecided =
        List.filter_map
          (fun (dg : Diag.t) ->
            if dg.Diag.severity = Diag.Warning && dg.Diag.code = Diag.No_connection
            then List.assoc_opt "slot_cap" dg.Diag.data
            else None)
          r.F.diags
      in
      Alcotest.(check (list string)) "undecided caps" [ "2" ] undecided

(* A node-limited budget trips both implementations at the same node. *)
let test_budget_exhausts_at_same_node () =
  let d = Benchmarks.ar_general () in
  let cons = Benchmarks.constraints_for_bidir d ~rate:3 in
  let budget () = Budget.make ~nodes:7_777 () in
  (match
     subbus_agree ~budget ~what:"subbus budget" d.Benchmarks.cdfg cons ~rate:3
       ~slot_cap:2
   with
  | Error e -> Alcotest.(check int) "subbus spent" 7_778 e.Budget.spent
  | Ok _ -> Alcotest.fail "subbus: expected the budget to run out");
  let d = Benchmarks.ar_simple () in
  let cons = Benchmarks.constraints_for_bidir d ~rate:2 in
  heuristic_agree ~budget ~what:"heuristic budget" d.Benchmarks.cdfg cons
    ~rate:2 ~mode:Connection.Bidir ~slot_cap:2

(* The shared search order: widest first, ids ascending on ties, with
   positions, interned values and width classes consistent. *)
let test_io_order () =
  let d = Benchmarks.ar_general () in
  let cdfg = d.Benchmarks.cdfg in
  let o = Io_order.of_cdfg cdfg in
  let n = Io_order.length o in
  Alcotest.(check int) "every I/O operation" (List.length (Cdfg.io_ops cdfg)) n;
  let position = Io_order.position o in
  for i = 0 to n - 1 do
    let op = o.Io_order.ops.(i) in
    Alcotest.(check int) "position inverts ops" i (position op);
    Alcotest.(check int) "width" (Cdfg.io_width cdfg op) o.Io_order.width.(i);
    Alcotest.(check int) "class width" o.Io_order.width.(i)
      o.Io_order.classes.(o.Io_order.width_class.(i));
    if i > 0 then begin
      let prev = o.Io_order.ops.(i - 1) in
      Alcotest.(check bool) "widest first, then by id" true
        (o.Io_order.width.(i - 1) > o.Io_order.width.(i)
        || (o.Io_order.width.(i - 1) = o.Io_order.width.(i) && prev < op))
    end;
    for j = 0 to n - 1 do
      Alcotest.(check bool) "values interned" true
        ((o.Io_order.value.(i) = o.Io_order.value.(j))
        = String.equal (Cdfg.io_value cdfg op)
            (Cdfg.io_value cdfg o.Io_order.ops.(j)))
    done
  done

(* ---- random designs under tight pin budgets ---- *)

let prop_random_designs =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* simple = bool in
      let* n_partitions = int_range 2 4 in
      let* size = int_range 3 8 in
      let* pins = int_range 4 12 in
      let* rate = int_range 2 4 in
      let* slot_cap = int_range 1 rate in
      let* bidir = bool in
      return (seed, simple, n_partitions, size, pins, rate, slot_cap, bidir))
  in
  let print (seed, simple, n_partitions, size, pins, rate, slot_cap, bidir) =
    Printf.sprintf "%s:%d:%d:%d pins=%d r%d cap %d %s"
      (if simple then "rsimple" else "random")
      seed n_partitions
      (if simple then size else 3 * size)
      (8 * pins) rate slot_cap
      (if bidir then "bidir" else "unidir")
  in
  QCheck.Test.make ~name:"incremental searches match the reference trees"
    ~count:150 (QCheck.make ~print gen)
    (fun ((seed, simple, n_partitions, size, pins, rate, slot_cap, bidir) as c)
    ->
      let cdfg =
        if simple then
          Random_design.generate_simple ~seed ~n_partitions ~ops_per_chip:size
            ()
        else Random_design.generate ~seed ~n_partitions ~n_ops:(3 * size) ()
      in
      (* Budgets from generous to starved: each chip 8 x [pins] lines, the
         outside world four times that. *)
      let budgets =
        List.init (n_partitions + 1) (fun p ->
            (p, if p = 0 then 32 * pins else 8 * pins))
      in
      let d =
        {
          Benchmarks.tag = "prop";
          cdfg;
          mlib = Random_design.mlib ();
          pins_unidir = budgets;
          pins_bidir = budgets;
          rates = [ rate ];
          fu_extra = [];
        }
      in
      let mode = if bidir then Connection.Bidir else Connection.Unidir in
      let cons = cons_for mode d ~rate in
      let what = print c in
      let budget () = Budget.make ~nodes:20_000 () in
      ignore (subbus_agree ~budget ~what cdfg cons ~rate ~slot_cap);
      heuristic_agree ~budget ~what cdfg cons ~rate ~mode ~slot_cap;
      true)

let suite =
  ( "oracle",
    [
      Alcotest.test_case "search order tables" `Quick test_io_order;
      Alcotest.test_case "subbus matches the reference (bundled grid)" `Quick
        test_subbus_bundled;
      Alcotest.test_case "heuristic matches the reference (bundled grid)"
        `Quick test_heuristic_bundled;
      Alcotest.test_case "subbus node limit is a typed outcome" `Quick
        test_subbus_cap_is_typed;
      Alcotest.test_case "ch6 flow names the undecided slot cap" `Quick
        test_flow_reports_undecided_cap;
      Alcotest.test_case "node budget exhausts both at the same node" `Quick
        test_budget_exhausts_at_same_node;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_random_designs ] )
