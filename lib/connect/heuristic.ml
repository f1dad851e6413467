open Mcs_cdfg
module M = Mcs_obs.Metrics
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault

let m_searches = M.counter "heuristic.searches"
let m_nodes = M.counter "heuristic.nodes"
let m_backtracks = M.counter "heuristic.backtracks"
let m_budget_exhausted = M.counter "heuristic.budget_exhausted"

type result = {
  conn : Connection.t;
  assign : (Types.op_id * int) list;
}

type error = Infeasible | Exhausted of Budget.exhausted

let error_message = function
  | Infeasible ->
      "Heuristic.search: no interchip connection satisfies the pin \
       constraints"
  | Exhausted e -> "Heuristic.search: " ^ Budget.message e

exception Budget_exhausted

let ceil_div a b = (a + b - 1) / b

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
  (* Operations are assigned strictly in search order, so at depth [k]
     exactly the first [k] are placed. *)
  let order = Io_order.of_cdfg cdfg in
  let n_ops = Io_order.length order in
  let op_width = order.width and op_src = order.src and op_dst = order.dst in
  let op_value = order.value and n_values = order.n_values in
  let bus_of = Array.make n_ops (-1) in
  (* A bus id never exceeds the search depth. *)
  let max_buses = max 1 n_ops in
  let branching = max 0 (min branching max_buses) in
  (* Distinct values tentatively carried by each bus (capacity L). *)
  let values_on = Array.make max_buses [||] in
  let slots = Array.make max_buses 0 in
  let value_present h v =
    Array.length values_on.(h) > 0 && values_on.(h).(v) > 0
  in
  let add_value h v =
    if Array.length values_on.(h) = 0 then values_on.(h) <- Array.make n_values 0;
    let on = values_on.(h) in
    if on.(v) = 0 then slots.(h) <- slots.(h) + 1;
    on.(v) <- on.(v) + 1
  in
  let remove_value h v =
    let on = values_on.(h) in
    on.(v) <- on.(v) - 1;
    if on.(v) = 0 then slots.(h) <- slots.(h) - 1
  in
  let pin_cap = Array.init (n_partitions + 1) (Constraints.pins cons) in
  let pins_used = Array.make (n_partitions + 1) 0 in
  (* Pin scarcity weight of §4.1.2. *)
  let unassigned_bits = Array.make (n_partitions + 1) 0 in
  Array.iteri
    (fun i bits ->
      unassigned_bits.(op_src.(i)) <- unassigned_bits.(op_src.(i)) + bits;
      unassigned_bits.(op_dst.(i)) <- unassigned_bits.(op_dst.(i)) + bits)
    op_width;
  let wf p =
    let free = pin_cap.(p) - pins_used.(p) in
    if free <= 0 then 1000.0
    else float_of_int unassigned_bits.(p) /. float_of_int free
  in
  (* Extra pins the endpoints commit to carry [width] over bus [h] (in
     [Bidir] mode [in_width] aliases the shared port). *)
  let extra_src h src width =
    max 0 (width - Connection.out_width conn ~bus:h ~partition:src)
  in
  let extra_dst h dst width =
    max 0 (width - Connection.in_width conn ~bus:h ~partition:dst)
  in
  let fits i h =
    let src = op_src.(i) and dst = op_dst.(i) and width = op_width.(i) in
    pins_used.(src) + extra_src h src width <= pin_cap.(src)
    && pins_used.(dst) + extra_dst h dst width <= pin_cap.(dst)
    (* src <> dst for I/O operations, so the two budgets are independent. *)
    && (value_present h op_value.(i) || slots.(h) < slot_cap)
  in
  let same_topology h h' =
    let same = ref true and p = ref 0 in
    while !same && !p <= n_partitions do
      same :=
        (Connection.out_width conn ~bus:h ~partition:!p > 0)
        = (Connection.out_width conn ~bus:h' ~partition:!p > 0)
        && (Connection.in_width conn ~bus:h ~partition:!p > 0)
           = (Connection.in_width conn ~bus:h' ~partition:!p > 0);
      incr p
    done;
    !same
  in
  (* The operations still to place, per partition side, as counts per
     width class (widest first).  Incoming operations count by width;
     outgoing ones once per value, at the width of the value's narrowest —
     last-placed — operation.  [Bidir] ports serve both directions, so the
     two kinds share one side: side [s] is partition [s / 2], inward when
     [s mod 2 = 0].  [try_bus] takes an operation's entries out on
     placement and puts them back on undo. *)
  let classes = order.classes in
  let n_classes = Array.length classes in
  let in_side p =
    match mode with Connection.Unidir -> 2 * p | Connection.Bidir -> (2 * p) + 1
  in
  let last_of_value = Array.make n_ops false in
  let seen = Array.make ((n_partitions + 1) * n_values) false in
  for i = n_ops - 1 downto 0 do
    let key = (op_src.(i) * n_values) + op_value.(i) in
    if not seen.(key) then begin
      seen.(key) <- true;
      last_of_value.(i) <- true
    end
  done;
  let remaining = Array.make (2 * (n_partitions + 1) * n_classes) 0 in
  let count_pending i d =
    let c = order.width_class.(i) in
    let k = (in_side op_dst.(i) * n_classes) + c in
    remaining.(k) <- remaining.(k) + d;
    if last_of_value.(i) then begin
      let k = (((2 * op_src.(i)) + 1) * n_classes) + c in
      remaining.(k) <- remaining.(k) + d
    end
  in
  for i = 0 to n_ops - 1 do
    count_pending i 1
  done;
  (* Scratch: one side's pending counts and its ports (narrowest first). *)
  let pending = Array.make n_classes 0 in
  let port_w = Array.make max_buses 0 and port_free = Array.make max_buses 0 in
  (* Sound feasibility prune: assuming maximal reuse of existing ports'
     free slots, the remaining unassigned operations on side [s] still
     need at least this many fresh pins. *)
  let side_lower_bound s =
    let p = s / 2 and inward = s mod 2 = 0 in
    let base = s * n_classes in
    let total = ref 0 in
    for c = 0 to n_classes - 1 do
      pending.(c) <- remaining.(base + c);
      total := !total + pending.(c)
    done;
    if !total = 0 then 0
    else begin
      let n_ports = ref 0 in
      for h = 0 to Connection.n_buses conn - 1 do
        let pw =
          if inward then Connection.in_width conn ~bus:h ~partition:p
          else Connection.out_width conn ~bus:h ~partition:p
        in
        if pw > 0 then begin
          let k = ref !n_ports in
          while !k > 0 && port_w.(!k - 1) > pw do
            port_w.(!k) <- port_w.(!k - 1);
            port_free.(!k) <- port_free.(!k - 1);
            decr k
          done;
          port_w.(!k) <- pw;
          port_free.(!k) <- max 0 (slot_cap - slots.(h));
          incr n_ports
        end
      done;
      (* Ports ascending by width: each absorbs, per free slot, the widest
         pending operation no wider than itself (optimistic). *)
      for q = 0 to !n_ports - 1 do
        let free = ref port_free.(q) and c = ref 0 in
        while !c < n_classes && classes.(!c) > port_w.(q) do
          incr c
        done;
        while !free > 0 && !c < n_classes do
          let taken = min !free pending.(!c) in
          pending.(!c) <- pending.(!c) - taken;
          free := !free - taken;
          incr c
        done
      done;
      (* Fresh pins for the leftovers: chunks of [slot_cap] values per new
         port, each port as wide as its widest member — the widths at
         positions 0, slot_cap, 2 slot_cap, ... of the widest-first list. *)
      let cost = ref 0 and pos = ref 0 in
      for c = 0 to n_classes - 1 do
        let m = pending.(c) in
        cost :=
          !cost
          + (classes.(c) * (ceil_div (!pos + m) slot_cap - ceil_div !pos slot_cap));
        pos := !pos + m
      done;
      !cost
    end
  in
  let viable () =
    let ok = ref true and p = ref 0 in
    while !ok && !p <= n_partitions do
      let room = pin_cap.(!p) - pins_used.(!p) in
      let lb = side_lower_bound (2 * !p) in
      ok := lb <= room && lb + side_lower_bound ((2 * !p) + 1) <= room;
      incr p
    done;
    !ok
  in
  (* Per-depth candidate buses: the best [branching] by gain
     [10000 g1 + 100 g2 + g3] with pairwise distinct topologies (§4.1.2);
     equal gains keep bus order, as in a stable sort. *)
  let gains = Array.make max_buses 0.0 and open_ = Array.make max_buses false in
  let chosen = Array.make (max_buses * max 1 branching) 0 in
  let n_chosen = Array.make max_buses 0 in
  let rank k =
    let src = op_src.(k) and dst = op_dst.(k) in
    let wf_src = wf src and wf_dst = wf dst in
    let n_buses = Connection.n_buses conn in
    for h = 0 to n_buses - 1 do
      open_.(h) <- fits k h;
      if open_.(h) then begin
        let src_connected = Connection.out_width conn ~bus:h ~partition:src > 0 in
        let dst_connected = Connection.in_width conn ~bus:h ~partition:dst > 0 in
        let g1 =
          (if src_connected then wf_src else 0.0)
          +. if dst_connected then wf_dst else 0.0
        in
        let g2 = if value_present h op_value.(k) then 1.0 else 0.0 in
        let g3 = float_of_int (slot_cap - slots.(h)) in
        gains.(h) <- (10000.0 *. g1) +. (100.0 *. g2) +. g3
      end
    done;
    let base = k * branching in
    n_chosen.(k) <- 0;
    let exhausted = ref false in
    while (not !exhausted) && n_chosen.(k) < branching do
      let best = ref (-1) in
      for h = 0 to n_buses - 1 do
        if open_.(h) && (!best < 0 || gains.(h) > gains.(!best)) then best := h
      done;
      if !best < 0 then exhausted := true
      else begin
        open_.(!best) <- false;
        let duplicate = ref false in
        for j = 0 to n_chosen.(k) - 1 do
          if same_topology chosen.(base + j) !best then duplicate := true
        done;
        if not !duplicate then begin
          chosen.(base + n_chosen.(k)) <- !best;
          n_chosen.(k) <- n_chosen.(k) + 1
        end
      end
    done
  in
  M.incr m_searches;
  let nodes = ref 0 in
  let rec assign_nodes k =
    if k = n_ops then true
    else begin
      incr nodes;
      M.incr m_nodes;
      Budget.spend_node budget;
      if !nodes > max_nodes then raise Budget_exhausted;
      rank k;
      try_chosen k 0 || try_fresh k
    end
  and try_chosen k j =
    j < n_chosen.(k)
    && (try_bus k chosen.((k * branching) + j) || try_chosen k (j + 1))
  and try_fresh k =
    (* Fresh bus as the final alternative. *)
    let h = Connection.new_bus conn in
    if fits k h && try_bus k h then true
    else begin
      Connection.drop_last_bus conn;
      false
    end
  and try_bus k h =
    let src = op_src.(k) and dst = op_dst.(k) and width = op_width.(k) in
    let saved_out = Connection.out_width conn ~bus:h ~partition:src in
    let saved_in = Connection.in_width conn ~bus:h ~partition:dst in
    let d_src = extra_src h src width and d_dst = extra_dst h dst width in
    Connection.widen_for conn ~bus:h ~src ~dst ~width;
    pins_used.(src) <- pins_used.(src) + d_src;
    pins_used.(dst) <- pins_used.(dst) + d_dst;
    add_value h op_value.(k);
    bus_of.(k) <- h;
    unassigned_bits.(src) <- unassigned_bits.(src) - width;
    unassigned_bits.(dst) <- unassigned_bits.(dst) - width;
    count_pending k (-1);
    if viable () && assign_nodes (k + 1) then true
    else begin
      M.incr m_backtracks;
      count_pending k 1;
      unassigned_bits.(src) <- unassigned_bits.(src) + width;
      unassigned_bits.(dst) <- unassigned_bits.(dst) + width;
      bus_of.(k) <- -1;
      remove_value h op_value.(k);
      pins_used.(src) <- pins_used.(src) - d_src;
      pins_used.(dst) <- pins_used.(dst) - d_dst;
      Connection.shrink conn ~bus:h ~src ~dst ~out_w:saved_out ~in_w:saved_in;
      false
    end
  in
  match
    match Fault.exhaust_heuristic () with
    | Some e -> raise (Budget.Out_of_budget e)
    | None -> assign_nodes 0
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
      let position = Io_order.position order in
      Ok
        {
          conn;
          assign =
            List.map (fun w -> (w, bus_of.(position w))) (Cdfg.io_ops cdfg);
        }

let pins_used_by_partition r =
  List.map
    (fun p -> Connection.pins_used r.conn p)
    (Mcs_util.Listx.range 0 (Connection.n_partitions r.conn + 1))
