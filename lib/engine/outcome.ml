module J = Mcs_obs.Report_json

type status =
  | Feasible
  | Infeasible of string
  | Crashed of string
  | Timed_out

type check = Clean | Violations of int

type solver = {
  certify_ok : int;
  certify_fail : int;
  arith_fallbacks : int;
}

type refine_step = {
  action : string;
  objective : int option;
  step_accepted : bool;
  step_pivots : int;
}

type refine = {
  steps : refine_step list;
  objective_start : int;
  objective_end : int;
  accepted : int;
  fixed_point : bool;
  refine_exhausted : bool;
}

type t = {
  job : Job.t;
  status : status;
  pins : (int * int) list;
  pipe_length : int;
  fu_count : int;
  check : check option;
  degraded : string list;
  solver : solver option;
  refine : refine option;
}

let pins_total o = Mcs_util.Listx.sum snd o.pins
let is_feasible o = o.status = Feasible

let status_label = function
  | Feasible -> "feasible"
  | Infeasible _ -> "infeasible"
  | Crashed _ -> "crashed"
  | Timed_out -> "timeout"

let check_label = function
  | Clean -> "clean"
  | Violations n -> Printf.sprintf "violations:%d" n

let check_of_label s =
  match s with
  | "clean" -> Ok Clean
  | _ -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "violations" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n > 0 -> Ok (Violations n)
          | _ -> Error (Printf.sprintf "outcome: bad check %S" s))
      | _ -> Error (Printf.sprintf "outcome: bad check %S" s))

let to_json o =
  let error =
    match o.status with
    | Infeasible m | Crashed m -> [ ("error", J.Str m) ]
    | Feasible | Timed_out -> []
  in
  J.Obj
    ([
       ("job", J.Str (Job.to_string o.job));
       ("status", J.Str (status_label o.status));
     ]
    @ error
    @ [
        ( "pins",
          J.Arr
            (List.map
               (fun (p, n) ->
                 J.Obj [ ("partition", J.Int p); ("pins", J.Int n) ])
               o.pins) );
        ("pipe_length", J.Int o.pipe_length);
        ("fu_count", J.Int o.fu_count);
      ]
    @ (match o.check with
      | None -> []
      | Some c -> [ ("check", J.Str (check_label c)) ])
    @ (match o.degraded with
      | [] -> []
      | steps -> [ ("degraded", J.Arr (List.map (fun m -> J.Str m) steps)) ])
    @ (match o.solver with
      | None -> []
      | Some s ->
          [
            ( "solver",
              J.Obj
                [
                  ("certify_ok", J.Int s.certify_ok);
                  ("certify_fail", J.Int s.certify_fail);
                  ("fallbacks", J.Int s.arith_fallbacks);
                ] );
          ])
    @
    match o.refine with
    | None -> []
    | Some r ->
        [
          ( "refine",
            J.Obj
              [
                ("objective_start", J.Int r.objective_start);
                ("objective_end", J.Int r.objective_end);
                ("accepted", J.Int r.accepted);
                ("fixed_point", J.Bool r.fixed_point);
                ("exhausted", J.Bool r.refine_exhausted);
                ( "steps",
                  J.Arr
                    (List.map
                       (fun st ->
                         J.Obj
                           ([ ("action", J.Str st.action) ]
                           @ (match st.objective with
                             | None -> []
                             | Some o -> [ ("objective", J.Int o) ])
                           @ [
                               ("accepted", J.Bool st.step_accepted);
                               ("pivots", J.Int st.step_pivots);
                             ]))
                       r.steps) );
              ] );
        ])

let ( let* ) = Result.bind
let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "outcome: missing or bad field %S" name)

let of_json j =
  let* job_s = field "job" J.to_str j in
  let* job = Job.of_string job_s in
  let* status_s = field "status" J.to_str j in
  let msg () =
    match Option.bind (J.member "error" j) J.to_str with
    | Some m -> m
    | None -> ""
  in
  let* status =
    match status_s with
    | "feasible" -> Ok Feasible
    | "infeasible" -> Ok (Infeasible (msg ()))
    | "crashed" -> Ok (Crashed (msg ()))
    | "timeout" -> Ok Timed_out
    | s -> Error (Printf.sprintf "outcome: unknown status %S" s)
  in
  let* pins_j = field "pins" J.to_list j in
  let* pins =
    List.fold_left
      (fun acc pj ->
        let* acc = acc in
        let* p = field "partition" J.to_int pj in
        let* n = field "pins" J.to_int pj in
        Ok ((p, n) :: acc))
      (Ok []) pins_j
    |> Result.map List.rev
  in
  let* pipe_length = field "pipe_length" J.to_int j in
  let* fu_count = field "fu_count" J.to_int j in
  let* check =
    (* absent = produced with checking off; tolerated for old entries *)
    match Option.bind (J.member "check" j) J.to_str with
    | None -> Ok None
    | Some s -> Result.map Option.some (check_of_label s)
  in
  let degraded =
    (* absent = full quality (and every pre-resilience entry) *)
    match Option.bind (J.member "degraded" j) J.to_list with
    | None -> []
    | Some l -> List.filter_map J.to_str l
  in
  let* solver =
    (* absent = produced before the hybrid-arithmetic solver (or by a
       synthetic worker); tolerated like [check] *)
    match J.member "solver" j with
    | None -> Ok None
    | Some sj ->
        let* certify_ok = field "certify_ok" J.to_int sj in
        let* certify_fail = field "certify_fail" J.to_int sj in
        let* arith_fallbacks = field "fallbacks" J.to_int sj in
        Ok (Some { certify_ok; certify_fail; arith_fallbacks })
  in
  let* refine =
    (* absent = no refinement stage ran (every pre-refinement entry) *)
    match J.member "refine" j with
    | None -> Ok None
    | Some rj ->
        let* objective_start = field "objective_start" J.to_int rj in
        let* objective_end = field "objective_end" J.to_int rj in
        let* accepted = field "accepted" J.to_int rj in
        let fixed_point =
          Option.bind (J.member "fixed_point" rj) J.to_bool = Some true
        in
        let refine_exhausted =
          Option.bind (J.member "exhausted" rj) J.to_bool = Some true
        in
        let* steps_j = field "steps" J.to_list rj in
        let* steps =
          List.fold_left
            (fun acc sj ->
              let* acc = acc in
              let* action = field "action" J.to_str sj in
              let objective = Option.bind (J.member "objective" sj) J.to_int in
              let step_accepted =
                Option.bind (J.member "accepted" sj) J.to_bool = Some true
              in
              let* step_pivots = field "pivots" J.to_int sj in
              Ok ({ action; objective; step_accepted; step_pivots } :: acc))
            (Ok []) steps_j
          |> Result.map List.rev
        in
        Ok
          (Some
             {
               steps;
               objective_start;
               objective_end;
               accepted;
               fixed_point;
               refine_exhausted;
             })
  in
  Ok
    { job; status; pins; pipe_length; fu_count; check; degraded; solver; refine }

let to_string o = J.to_string (to_json o)

let of_string s =
  let* j = J.of_string s in
  of_json j

let equal a b = to_string a = to_string b
