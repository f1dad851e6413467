(* Re-verification of a feasible outcome, outside any timed phase: the
   job is re-run under the strict checker, its result must reproduce the
   outcome's pins and pipe length, and the synthesized machine must compute
   what the CDFG denotes (functional simulation). *)

module J = Mcs_engine.Job
module O = Mcs_engine.Outcome
module F = Mcs_flow.Flow
module A = Mcs_flow.Artifact
module C = Mcs_connect.Connection
module SB = Mcs_core.Subbus
module Cdfg = Mcs_cdfg.Cdfg

(* The same flow/port-mode mapping the engine applies to a job. *)
let flow_of (job : J.t) =
  match job.J.flow with
  | J.Ch3 -> (F.Ch3, C.Unidir)
  | J.Ch4_unidir -> (F.Ch4, C.Unidir)
  | J.Ch4_bidir -> (F.Ch4, C.Bidir)
  | J.Ch5 -> (F.Ch5, C.Bidir)
  | J.Ch6 -> (F.Ch6, C.Bidir)

let spec_of (job : J.t) d =
  let flow, mode = flow_of job in
  (flow, F.spec_of_design ?pipe_length:job.J.pipe_length ~mode ~flow d ~rate:job.J.rate)

let subbus_slots assignment op =
  match List.assoc op assignment with
  | bus, SB.Lo -> [ 2 * bus ]
  | bus, SB.Hi -> [ (2 * bus) + 1 ]
  | bus, SB.Whole -> [ 2 * bus; (2 * bus) + 1 ]

(* A high-slice transfer needs its ports to span the low slice first; a
   whole-bus transfer occupies the line prefix of its own width. *)
let subbus_capable cdfg buses assignment slot op =
  let rb = List.nth buses (slot / 2) in
  let _, slice = List.assoc op assignment in
  let width = Cdfg.io_width cdfg op in
  let port p = Option.value ~default:0 (List.assoc_opt p rb.SB.ports) in
  let need =
    match (rb.SB.split_at, slice) with
    | Some l, SB.Hi -> l + width
    | _ -> width
  in
  width <= rb.SB.width
  && port (Cdfg.io_src cdfg op) >= need
  && port (Cdfg.io_dst cdfg op) >= need

let simulate cdfg (r : F.result) =
  let bus_of, bus_capable =
    match r.F.connection with
    | A.Bundles _ ->
        (* Theorem 3.1 wiring is per transfer: check the dataflow. *)
        ((fun op -> [ op ]), fun _ _ -> true)
    | A.Buses { conn; assignment; _ } ->
        ( (fun op -> [ List.assoc op assignment ]),
          fun bus op -> C.capable conn cdfg ~bus op )
    | A.Subbuses { buses; assignment; _ } ->
        (subbus_slots assignment, subbus_capable cdfg buses assignment)
  in
  Mcs_sim.Simulate.check_equivalent r.F.schedule ~bus_of ~bus_capable ~seed:2026
    ~instances:6

let feasible (o : O.t) =
  match J.resolve o.O.job.J.design with
  | Error m -> Error ("design does not resolve: " ^ m)
  | Ok d -> (
      let flow, spec = spec_of o.O.job d in
      match Mcs_check.run ~level:Mcs_flow.Pass.Strict flow spec with
      | Error dg -> Error ("strict re-run rejected: " ^ Mcs_flow.Diag.message dg)
      | Ok r when r.F.pins <> o.O.pins || r.F.pipe_length <> o.O.pipe_length ->
          Error
            (Printf.sprintf "re-run gives %d pins / pipe %d, outcome claims %d / %d"
               (F.pins_total r) r.F.pipe_length (O.pins_total o) o.O.pipe_length)
      | Ok r -> (
          match simulate d.Mcs_cdfg.Benchmarks.cdfg r with
          | Ok () -> Ok ()
          | Error m -> Error ("simulation: " ^ m)))

let outcome (o : O.t) =
  match o.O.status with
  | O.Feasible -> (
      try feasible o with e -> Error ("verifier raised " ^ Printexc.to_string e))
  | O.Infeasible _ | O.Crashed _ | O.Timed_out -> Ok ()

(* Verifies outcomes on [domains] worker domains; returns the failures
   with their job encodings. *)
let all ?(domains = 2) (os : O.t list) =
  let a = Array.of_list os in
  let next = Atomic.make 0 in
  let work () =
    let errs = ref [] in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length a then begin
        (match outcome a.(i) with
        | Ok () -> ()
        | Error m -> errs := (J.to_string a.(i).O.job, m) :: !errs);
        go ()
      end
    in
    go ();
    !errs
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  let mine = work () in
  mine @ List.concat_map Domain.join ds
