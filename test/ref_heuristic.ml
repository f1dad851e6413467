(* Reference implementation of the Chapter 4 branch-limited connection
   search: the list-based [Heuristic.search] as it stood before its
   search state became incremental, kept verbatim as a differential
   oracle.  It charges the same [heuristic.*] counters, so a test can
   compare the library's counter deltas with this one's.  Test-only;
   never linked into lib/. *)

open Mcs_cdfg
open Mcs_connect
module M = Mcs_obs.Metrics
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault

let m_searches = M.counter "heuristic.searches"
let m_nodes = M.counter "heuristic.nodes"
let m_backtracks = M.counter "heuristic.backtracks"
let m_budget_exhausted = M.counter "heuristic.budget_exhausted"

type result = Heuristic.result = {
  conn : Connection.t;
  assign : (Types.op_id * int) list;
}

type error = Heuristic.error = Infeasible | Exhausted of Budget.exhausted

exception Budget_exhausted

let search ?(budget = Budget.unlimited) cdfg cons ~rate ~mode ?slot_cap
    ?(branching = 2) ?(max_nodes = 200_000) () =
  let slot_cap =
    match slot_cap with
    | None -> rate
    | Some c ->
        if c < 1 || c > rate then invalid_arg "Heuristic.search: bad slot_cap";
        c
  in
  let n_partitions = Cdfg.n_partitions cdfg in
  let conn = Connection.create mode ~n_partitions in
  let ops =
    List.sort
      (fun a b ->
        let c = compare (Cdfg.io_width cdfg b) (Cdfg.io_width cdfg a) in
        if c <> 0 then c else compare a b)
      (Cdfg.io_ops cdfg)
  in
  let assigned : (Types.op_id, int) Hashtbl.t = Hashtbl.create 64 in
  (* Distinct values tentatively carried by each bus (capacity L). *)
  let values_on : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
  let slots_used : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let slots h = Option.value ~default:0 (Hashtbl.find_opt slots_used h) in
  let value_present h v = Hashtbl.mem values_on (h, v) in
  let add_value h v =
    match Hashtbl.find_opt values_on (h, v) with
    | Some n -> Hashtbl.replace values_on (h, v) (n + 1)
    | None ->
        Hashtbl.add values_on (h, v) 1;
        Hashtbl.replace slots_used h (slots h + 1)
  in
  let remove_value h v =
    match Hashtbl.find_opt values_on (h, v) with
    | Some 1 ->
        Hashtbl.remove values_on (h, v);
        Hashtbl.replace slots_used h (slots h - 1)
    | Some n -> Hashtbl.replace values_on (h, v) (n - 1)
    | None -> assert false
  in
  (* Pin scarcity weight of §4.1.2. *)
  let unassigned_bits = Array.make (n_partitions + 1) 0 in
  List.iter
    (fun w ->
      let bits = Cdfg.io_width cdfg w in
      unassigned_bits.(Cdfg.io_src cdfg w) <-
        unassigned_bits.(Cdfg.io_src cdfg w) + bits;
      unassigned_bits.(Cdfg.io_dst cdfg w) <-
        unassigned_bits.(Cdfg.io_dst cdfg w) + bits)
    ops;
  let wf p =
    let free = Constraints.pins cons p - Connection.pins_used conn p in
    if free <= 0 then 1000.0
    else float_of_int unassigned_bits.(p) /. float_of_int free
  in
  let fits w h =
    let src = Cdfg.io_src cdfg w
    and dst = Cdfg.io_dst cdfg w
    and width = Cdfg.io_width cdfg w in
    let d_src, d_dst = Connection.extra_pins_for conn ~bus:h ~src ~dst ~width in
    let pin_ok =
      Connection.pins_used conn src + d_src <= Constraints.pins cons src
      && Connection.pins_used conn dst + d_dst <= Constraints.pins cons dst
      (* When src and dst demand pins of the same chip it would be the same
         budget; src <> dst for I/O operations so the two checks are
         independent. *)
    in
    let cap_ok = value_present h (Cdfg.io_value cdfg w) || slots h < slot_cap in
    pin_ok && cap_ok
  in
  let gain w h =
    let src = Cdfg.io_src cdfg w and dst = Cdfg.io_dst cdfg w in
    let src_connected = Connection.out_width conn ~bus:h ~partition:src > 0 in
    let dst_connected = Connection.in_width conn ~bus:h ~partition:dst > 0 in
    let g1 =
      (if src_connected then wf src else 0.0)
      +. if dst_connected then wf dst else 0.0
    in
    let g2 = if value_present h (Cdfg.io_value cdfg w) then 1.0 else 0.0 in
    let g3 = float_of_int (slot_cap - slots h) in
    (10000.0 *. g1) +. (100.0 *. g2) +. g3
  in
  (* Sound feasibility prune: assuming maximal reuse of existing ports'
     free slots, the remaining unassigned operations on each side of each
     partition still need at least [side_lower_bound] fresh pins; a branch
     whose optimistic completion already blows a budget is dead. *)
  let side_lower_bound unassigned_ops port_widths =
    (* Each existing port can absorb, per free slot, one op no wider than
       itself; absorb widest-compatible first (optimistic). *)
    let widths =
      List.sort (fun a b -> compare b a) unassigned_ops (* desc *)
    in
    let ports = List.sort (fun (a, _) (b, _) -> compare a b) port_widths in
    (* ports ascending by width: narrow ports absorb the narrowest ops they
       can, leaving wide ports for wide ops — optimistic either way; absorb
       greedily. *)
    let leftovers =
      List.fold_left
        (fun remaining (pw, free) ->
          let rec absorb k rem =
            if k = 0 then rem
            else
              match rem with
              | [] -> []
              | w :: tl when w <= pw -> absorb (k - 1) tl
              | w :: tl -> w :: absorb k tl
          in
          absorb free remaining)
        widths ports
    in
    (* Fresh pins for the leftovers: chunks of [slot_cap] values per new
       port, each port as wide as its widest member. *)
    let rec chunked = function
      | [] -> 0
      | widest :: _ as rem ->
          let rest = List.filteri (fun i _ -> i >= slot_cap) rem in
          widest + chunked rest
    in
    chunked leftovers
  in
  let viable () =
    let ok p =
      let in_ops = ref [] and out_vals = ref [] in
      List.iter
        (fun w ->
          if not (Hashtbl.mem assigned w) then begin
            if Cdfg.io_dst cdfg w = p then
              in_ops := Cdfg.io_width cdfg w :: !in_ops;
            if Cdfg.io_src cdfg w = p then
              out_vals := (Cdfg.io_value cdfg w, Cdfg.io_width cdfg w) :: !out_vals
          end)
        ops;
      let out_ops = List.map snd (Mcs_util.Listx.uniq (fun a b -> String.equal (fst a) (fst b)) !out_vals) in
      let ports side_width =
        List.filter_map
          (fun h ->
            let pw = side_width h in
            if pw > 0 then Some (pw, max 0 (slot_cap - slots h)) else None)
          (Mcs_util.Listx.range 0 (Connection.n_buses conn))
      in
      let lb =
        match mode with
        | Connection.Unidir ->
            side_lower_bound !in_ops
              (ports (fun h -> Connection.in_width conn ~bus:h ~partition:p))
            + side_lower_bound out_ops
                (ports (fun h -> Connection.out_width conn ~bus:h ~partition:p))
        | Connection.Bidir ->
            side_lower_bound
              (!in_ops @ out_ops)
              (ports (fun h -> Connection.out_width conn ~bus:h ~partition:p))
      in
      Connection.pins_used conn p + lb <= Constraints.pins cons p
    in
    List.for_all ok (Mcs_util.Listx.range 0 (n_partitions + 1))
  in
  M.incr m_searches;
  let nodes = ref 0 in
  let rec assign_nodes = function
    | [] -> true
    | w :: rest ->
        incr nodes;
        M.incr m_nodes;
        Budget.spend_node budget;
        if !nodes > max_nodes then raise Budget_exhausted;
        let src = Cdfg.io_src cdfg w
        and dst = Cdfg.io_dst cdfg w
        and width = Cdfg.io_width cdfg w in
        let existing =
          List.filter (fits w) (Mcs_util.Listx.range 0 (Connection.n_buses conn))
        in
        let ranked =
          List.sort
            (fun a b -> compare (gain w b) (gain w a))
            existing
        in
        (* Keep the best few with pairwise distinct topologies (§4.1.2). *)
        let rec distinct seen = function
          | [] -> []
          | h :: hs ->
              let topo = Connection.topology conn ~bus:h in
              if List.mem topo seen then distinct seen hs
              else h :: distinct (topo :: seen) hs
        in
        let candidates = Mcs_util.Listx.take branching (distinct [] ranked) in
        let try_bus h =
          let saved_out = Connection.out_width conn ~bus:h ~partition:src in
          let saved_in = Connection.in_width conn ~bus:h ~partition:dst in
          Connection.widen_for conn ~bus:h ~src ~dst ~width;
          add_value h (Cdfg.io_value cdfg w);
          Hashtbl.replace assigned w h;
          unassigned_bits.(src) <- unassigned_bits.(src) - width;
          unassigned_bits.(dst) <- unassigned_bits.(dst) - width;
          if viable () && assign_nodes rest then true
          else begin
            M.incr m_backtracks;
            unassigned_bits.(src) <- unassigned_bits.(src) + width;
            unassigned_bits.(dst) <- unassigned_bits.(dst) + width;
            Hashtbl.remove assigned w;
            remove_value h (Cdfg.io_value cdfg w);
            Connection.shrink conn ~bus:h ~src ~dst ~out_w:saved_out
              ~in_w:saved_in;
            false
          end
        in
        List.exists try_bus candidates
        ||
        (* Fresh bus as the final alternative. *)
        let h = Connection.new_bus conn in
        if fits w h && try_bus h then true
        else begin
          Connection.drop_last_bus conn;
          false
        end
  in
  match
    match Fault.exhaust_heuristic () with
    | Some e -> raise (Budget.Out_of_budget e)
    | None -> assign_nodes ops
  with
  | exception Budget_exhausted ->
      M.incr m_budget_exhausted;
      if Mcs_obs.Events.on () then
        Mcs_obs.Events.emit ~cat:"heuristic" "exhausted"
          ~args:
            [
              ("resource", Mcs_obs.Events.Str "nodes");
              ("limit", Mcs_obs.Events.Int max_nodes);
              ("spent", Mcs_obs.Events.Int !nodes);
            ];
      Error
        (Exhausted
           { Budget.resource = Budget.Nodes; limit = max_nodes; spent = !nodes })
  | exception Budget.Out_of_budget e ->
      M.incr m_budget_exhausted;
      Error (Exhausted e)
  | false -> Error Infeasible
  | true ->
      let assign =
        List.map (fun w -> (w, Hashtbl.find assigned w)) (Cdfg.io_ops cdfg)
      in
      Ok { conn; assign }
