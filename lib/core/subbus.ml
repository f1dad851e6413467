open Mcs_cdfg
module C = Mcs_connect.Connection
module R = Mcs_connect.Reassign
module LS = Mcs_sched.List_sched
module M = Mcs_obs.Metrics
module Log = Mcs_obs.Log
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault

let m_attempts = M.counter "subbus.attempts"
let m_search_nodes = M.counter "subbus.search_nodes"
let m_backtracks = M.counter "subbus.backtracks"
let m_retired = M.counter "subbus.retired_buses"
let m_budget_exhausted = M.counter "subbus.budget_exhausted"

type sub = Lo | Hi | Whole

type real_bus = {
  width : int;
  split_at : int option;
  ports : (int * int) list;
  carried : (Types.op_id * sub) list;
}

type t = {
  real_buses : real_bus list;
  initial_assignment : (Types.op_id * (int * sub)) list;
  final_assignment : (Types.op_id * (int * sub)) list;
  allocation : ((int * sub * int) * (string * int * Types.op_id list)) list;
  schedule : Mcs_sched.Schedule.t;
  pins : (int * int) list;
  static_pipe_length : int option;
}

type error = Infeasible | Exhausted of Budget.exhausted

let error_message = function
  | Infeasible ->
      "Subbus.search: cannot place the I/O operations within the pin budgets"
  | Exhausted e -> "Subbus.search: " ^ Budget.message e

let port_need ~split_lo op_width = function
  | Lo | Whole -> op_width
  | Hi -> split_lo + op_width

(* Mutable search state for one bus.  Operations are indices into the
   search order and values are interned, so every load and sharing query
   is an array read. *)
type sbus = {
  swidth : int;
  mutable split : int option;
  sports : int array; (* r_{i,h}, bidirectional *)
  mutable occupants : (int * sub) list; (* newest first *)
  mutable n_occupants : int;
  on_slice : int array;
      (* [slice_index s * n_values + v]: occupants of value [v] placed on
         exactly slice [s] *)
  mutable load_lo : int; (* distinct values on the first half: Lo + Whole *)
  mutable load_hi : int; (* distinct values on the second half: Hi + Whole *)
}

let slice_index = function Lo -> 0 | Hi -> 1 | Whole -> 2
let slice_of_index = function 0 -> Lo | 1 -> Hi | _ -> Whole

(* Distinct values loading one slice; for [Whole], the fuller half. *)
let slice_load b = function
  | Lo -> b.load_lo
  | Hi -> b.load_hi
  | Whole -> max b.load_lo b.load_hi

(* Candidates rank by fewest extra pins (the paper's scarcity-weighted
   reuse), then value sharing, plain before split, and the lightest slice.
   The four keys pack lexicographically into one int (loads stay far
   below 2^30). *)
let rank_key ~extra ~shared ~plain ~load =
  ((((-extra * 2) + Bool.to_int shared) * 2) + Bool.to_int plain)
  * (1 lsl 30)
  - load

(* Nodes the constructive search may visit before its slot cap counts as
   undecided; each compaction attempt to retire a bus gets as many. *)
let node_limit = 200_000

let search ?(budget = Budget.unlimited) cdfg cons ~rate ?slot_cap () =
  M.incr m_attempts;
  let slot_cap = Option.value ~default:rate slot_cap in
  (* The cap spreads load during the constructive phase; compaction packs
     up to the physical limit (the initiation rate). *)
  let cap_limit = ref slot_cap in
  let n = Cdfg.n_partitions cdfg in
  let pin_cap = Array.init (n + 1) (Constraints.pins cons) in
  let pins_used = Array.make (n + 1) 0 in
  let order = Mcs_connect.Io_order.of_cdfg cdfg in
  let n_ops = Mcs_connect.Io_order.length order in
  let op_width = order.width and op_src = order.src and op_dst = order.dst in
  let op_value = order.value and n_values = order.n_values in
  let max_width = Array.fold_left max 0 op_width in
  (* Width classes, widest first, and the per-partition count of unplaced
     operations in each class: the pending multiset of the pin prune.
     [placed.(i)]: operation [i] holds a slice somewhere.  During
     compaction a relocating operation keeps its old slice until it is
     moved, and a move that is undone leaves it unplaced. *)
  let classes = order.classes in
  let n_classes = Array.length classes in
  let placed = Array.make n_ops false in
  let unplaced = Array.make ((n + 1) * n_classes) 0 in
  let count_unplaced i d =
    let c = order.width_class.(i) in
    let s = (op_src.(i) * n_classes) + c and t = (op_dst.(i) * n_classes) + c in
    unplaced.(s) <- unplaced.(s) + d;
    unplaced.(t) <- unplaced.(t) + d
  in
  for i = 0 to n_ops - 1 do
    count_unplaced i 1
  done;
  let set_placed i now =
    if placed.(i) <> now then begin
      placed.(i) <- now;
      count_unplaced i (if now then -1 else 1)
    end
  in
  let buses = ref [||] and n_buses = ref 0 in
  let push_bus b =
    if !n_buses = Array.length !buses then begin
      let grown = Array.make (max 8 (2 * !n_buses)) b in
      Array.blit !buses 0 grown 0 !n_buses;
      buses := grown
    end;
    !buses.(!n_buses) <- b;
    incr n_buses
  in
  let live () = Array.to_list (Array.sub !buses 0 !n_buses) in
  let new_bus width =
    {
      swidth = width;
      split = None;
      sports = Array.make (n + 1) 0;
      occupants = [];
      n_occupants = 0;
      on_slice = Array.make (3 * n_values) 0;
      load_lo = 0;
      load_hi = 0;
    }
  in
  let on_slice b s v = b.on_slice.((slice_index s * n_values) + v) in
  let on_lo b v = on_slice b Lo v + on_slice b Whole v in
  let on_hi b v = on_slice b Hi v + on_slice b Whole v in
  let loads_lo = function Lo | Whole -> true | Hi -> false in
  let loads_hi = function Hi | Whole -> true | Lo -> false in
  let add_value b v s =
    if loads_lo s && on_lo b v = 0 then b.load_lo <- b.load_lo + 1;
    if loads_hi s && on_hi b v = 0 then b.load_hi <- b.load_hi + 1;
    let k = (slice_index s * n_values) + v in
    b.on_slice.(k) <- b.on_slice.(k) + 1
  in
  let remove_value b v s =
    let k = (slice_index s * n_values) + v in
    b.on_slice.(k) <- b.on_slice.(k) - 1;
    if loads_lo s && on_lo b v = 0 then b.load_lo <- b.load_lo - 1;
    if loads_hi s && on_hi b v = 0 then b.load_hi <- b.load_hi - 1
  in
  let move_value b (j, s) (_, s') =
    if slice_index s <> slice_index s' then begin
      remove_value b op_value.(j) s;
      add_value b op_value.(j) s'
    end
  in
  let commit b i slice =
    let width = op_width.(i) and src = op_src.(i) and dst = op_dst.(i) in
    let lo = Option.value ~default:b.swidth b.split in
    let need = port_need ~split_lo:lo width slice in
    pins_used.(src) <- pins_used.(src) + max 0 (need - b.sports.(src));
    pins_used.(dst) <- pins_used.(dst) + max 0 (need - b.sports.(dst));
    b.sports.(src) <- max b.sports.(src) need;
    b.sports.(dst) <- max b.sports.(dst) need;
    b.occupants <- (i, slice) :: b.occupants;
    b.n_occupants <- b.n_occupants + 1;
    add_value b op_value.(i) slice;
    set_placed i true
  in
  let uncommit b i slice =
    set_placed i false;
    remove_value b op_value.(i) slice;
    b.n_occupants <- b.n_occupants - 1
  in
  (* Scratch for [pins_viable]: the pending count per width class and the
     ports of one partition (narrowest first). *)
  let pending = Array.make n_classes 0 and n_pending = ref 0 in
  let port_w = Array.make (n_ops + 1) 0 and port_free = Array.make (n_ops + 1) 0 in
  (* Class of the widest pending operation no wider than [w], or -1. *)
  let widest_at_most w =
    let c = ref 0 in
    while !c < n_classes && (pending.(!c) = 0 || classes.(!c) > w) do
      incr c
    done;
    if !c < n_classes then !c else -1
  in
  let take c =
    pending.(c) <- pending.(c) - 1;
    decr n_pending
  in
  (* A port of width [pw] absorbs, per free cycle, one pending operation
     <= pw plus possibly a second fitting the remaining lines (two
     sub-buses max).  False when nothing fits (later cycles take nothing
     either). *)
  let absorb_cycle pw =
    let c = widest_at_most pw in
    c >= 0
    &&
    let () = take c in
    let c2 = widest_at_most (pw - classes.(c)) in
    if c2 >= 0 then take c2;
    true
  in
  (* Optimistic feasibility prune (see Heuristic.search): assuming maximal
     reuse of existing ports — every port absorbing up to 2 x slot_cap
     not-wider operations, the sub-bus optimum — the remaining unassigned
     operations still need some fresh pins on each partition. *)
  let partition_ok p =
    n_pending := 0;
    for c = 0 to n_classes - 1 do
      pending.(c) <- unplaced.((p * n_classes) + c);
      n_pending := !n_pending + pending.(c)
    done;
    if !n_pending > 0 then begin
      let n_ports = ref 0 in
      for h = 0 to !n_buses - 1 do
        let b = !buses.(h) in
        let pw = b.sports.(p) in
        if pw > 0 then begin
          let k = ref !n_ports in
          while !k > 0 && port_w.(!k - 1) > pw do
            port_w.(!k) <- port_w.(!k - 1);
            port_free.(!k) <- port_free.(!k - 1);
            decr k
          done;
          port_w.(!k) <- pw;
          port_free.(!k) <- max 0 ((2 * !cap_limit) - b.n_occupants);
          incr n_ports
        end
      done;
      for q = 0 to !n_ports - 1 do
        let free = ref port_free.(q) in
        while !free > 0 && !n_pending > 0 && absorb_cycle port_w.(q) do
          decr free
        done
      done
    end;
    (* Fresh ports for the leftovers, each as wide as the widest one and
       absorbing [cap_limit] cycles. *)
    let room = pin_cap.(p) - pins_used.(p) in
    let cost = ref 0 in
    while !n_pending > 0 && !cost <= room do
      let widest = classes.(widest_at_most max_int) in
      cost := !cost + widest;
      let cycles = ref !cap_limit in
      while !cycles > 0 && absorb_cycle widest do
        decr cycles
      done
    done;
    !cost <= room
  in
  let pins_viable () =
    let p = ref 0 in
    while !p <= n && partition_ok !p do
      incr p
    done;
    !p > n
  in
  (* The best three candidates of each search depth: packed rank keys and
     (bus, slice, split point) codes, best first; among equal keys the
     earlier-enumerated candidate stays ahead, as in a stable sort. *)
  let depths = max 1 n_ops in
  let top_key = Array.make (3 * depths) 0 in
  let top_code = Array.make (3 * depths) 0 in
  let n_top = Array.make depths 0 in
  let code h slice lo = (((h * 3) + slice_index slice) * (max_width + 1)) + lo in
  let keep k key code =
    let base = 3 * k and kept = n_top.(k) in
    let j = ref kept in
    while !j > 0 && top_key.(base + !j - 1) < key do
      decr j
    done;
    if !j < 3 then begin
      for m = min kept 2 downto !j + 1 do
        top_key.(base + m) <- top_key.(base + m - 1);
        top_code.(base + m) <- top_code.(base + m - 1)
      done;
      top_key.(base + !j) <- key;
      top_code.(base + !j) <- code;
      n_top.(k) <- min 3 (kept + 1)
    end
  in
  let extra i b need =
    max 0 (need - b.sports.(op_src.(i))) + max 0 (need - b.sports.(op_dst.(i)))
  in
  let pins_fit i b need =
    let src = op_src.(i) and dst = op_dst.(i) in
    pins_used.(src) + max 0 (need - b.sports.(src)) <= pin_cap.(src)
    && pins_used.(dst) + max 0 (need - b.sports.(dst)) <= pin_cap.(dst)
  in
  let plain k i h b slice =
    let width = op_width.(i) in
    let slice_ok =
      match (b.split, slice) with
      | None, Whole -> width <= b.swidth
      | None, (Lo | Hi) -> false
      | Some lo, Lo -> width <= lo
      | Some lo, Hi -> width <= b.swidth - lo
      | Some _, Whole -> width <= b.swidth
    in
    if slice_ok then begin
      let lo = Option.value ~default:b.swidth b.split in
      let need = port_need ~split_lo:lo width slice in
      let shared = on_slice b slice op_value.(i) > 0 in
      let load = slice_load b slice in
      if (shared || load < !cap_limit) && pins_fit i b need then
        keep k
          (rank_key ~extra:(extra i b need) ~shared ~plain:true ~load)
          (code h slice 0)
    end
  in
  (* Distinct values of the occupants that stay on both sub-buses after a
     split at [lo]: the second half's load once split. *)
  let value_seen = Array.make (n_values + 1) 0 and value_stamp = ref 0 in
  let rec load_above lo acc = function
    | [] -> acc
    | (j, _) :: rest ->
        let v = op_value.(j) in
        if op_width.(j) > lo && value_seen.(v) <> !value_stamp then begin
          value_seen.(v) <- !value_stamp;
          load_above lo (acc + 1) rest
        end
        else load_above lo acc rest
  in
  (* Splitting an unsplit bus at [lo] to carry the operation on the second
     sub-bus.  The rank reads the bus as it is; fitness reads it as split. *)
  let split k i h b lo =
    let need = lo + op_width.(i) in
    if need <= b.swidth && pins_fit i b need then begin
      incr value_stamp;
      if load_above lo 0 b.occupants < !cap_limit then
        keep k
          (rank_key ~extra:(extra i b need)
             ~shared:(on_slice b Hi op_value.(i) > 0)
             ~plain:false ~load:(slice_load b Hi))
          (code h Hi lo)
    end
  in
  (* Split points: the new operation's own width or a previous occupant's
     (each once); occupants not fitting the first sub-bus keep using the
     whole bus (grouping both sub-buses, §6.1). *)
  let width_seen = Array.make (max_width + 1) 0 and width_stamp = ref 0 in
  let rec occupant_splits k i h b = function
    | [] -> ()
    | (j, _) :: rest ->
        let lo = op_width.(j) in
        if width_seen.(lo) <> !width_stamp then begin
          width_seen.(lo) <- !width_stamp;
          split k i h b lo
        end;
        occupant_splits k i h b rest
  in
  (* Candidate enumeration: slices of existing buses, then splits of
     unsplit buses; a fresh bus is the final alternative. *)
  let enumerate k i =
    n_top.(k) <- 0;
    for h = 0 to !n_buses - 1 do
      let b = !buses.(h) in
      match b.split with
      | None -> plain k i h b Whole
      | Some _ ->
          plain k i h b Lo;
          plain k i h b Hi
    done;
    for h = 0 to !n_buses - 1 do
      let b = !buses.(h) in
      match b.split with
      | Some _ -> ()
      | None ->
          incr width_stamp;
          width_seen.(op_width.(i)) <- !width_stamp;
          split k i h b op_width.(i);
          occupant_splits k i h b b.occupants
    done
  in
  (* Depth-first with backtracking over the ranked candidates. *)
  let nodes = ref 0 in
  let allow_fresh = ref true in
  let rec assign_rec order k =
    if k = Array.length order then true
    else begin
      incr nodes;
      M.incr m_search_nodes;
      Budget.spend_node budget;
      if !nodes > node_limit then false
      else begin
        let i = order.(k) in
        enumerate k i;
        try_ranked order k i 0 || try_fresh order k i
      end
    end
  and try_ranked order k i j =
    j < n_top.(k)
    && (try_candidate order k i top_code.((3 * k) + j)
       || try_ranked order k i (j + 1))
  and try_candidate order k i code =
    let lo = code mod (max_width + 1) in
    let rest = code / (max_width + 1) in
    let b = !buses.(rest / 3) and slice = slice_of_index (rest mod 3) in
    let src = op_src.(i) and dst = op_dst.(i) in
    let saved_split = b.split and saved_occupants = b.occupants in
    let saved_src = b.sports.(src) and saved_dst = b.sports.(dst) in
    let saved_pins_src = pins_used.(src) and saved_pins_dst = pins_used.(dst) in
    if lo > 0 then begin
      (* Narrow occupants move to the first sub-bus, the rest keep
         grouping both sub-buses. *)
      b.split <- Some lo;
      b.occupants <-
        List.map
          (fun (j, _) -> (j, if op_width.(j) <= lo then Lo else Whole))
          saved_occupants;
      List.iter2 (move_value b) saved_occupants b.occupants
    end;
    let reslotted = b.occupants in
    commit b i slice;
    if pins_viable () && assign_rec order (k + 1) then true
    else begin
      M.incr m_backtracks;
      uncommit b i slice;
      if lo > 0 then List.iter2 (move_value b) reslotted saved_occupants;
      b.split <- saved_split;
      b.occupants <- saved_occupants;
      b.sports.(src) <- saved_src;
      b.sports.(dst) <- saved_dst;
      pins_used.(src) <- saved_pins_src;
      pins_used.(dst) <- saved_pins_dst;
      false
    end
  and try_fresh order k i =
    (* Fresh bus of exactly this operation's width. *)
    let width = op_width.(i) and src = op_src.(i) and dst = op_dst.(i) in
    !allow_fresh
    && pins_used.(src) + width <= pin_cap.(src)
    && pins_used.(dst) + width <= pin_cap.(dst)
    &&
    let b = new_bus width in
    push_bus b;
    commit b i Whole;
    if pins_viable () && assign_rec order (k + 1) then true
    else begin
      M.incr m_backtracks;
      set_placed i false;
      decr n_buses;
      pins_used.(src) <- pins_used.(src) - width;
      pins_used.(dst) <- pins_used.(dst) - width;
      false
    end
  in
  (* Compaction: repeatedly try to retire a whole bus by relocating its
     traffic onto (possibly split) slices of the others — this is where
     sub-bus sharing actually buys pins back. *)
  let recompute_pins () =
    for p = 0 to n do
      pins_used.(p) <- 0;
      for h = 0 to !n_buses - 1 do
        pins_used.(p) <- pins_used.(p) + !buses.(h).sports.(p)
      done
    done
  in
  let snapshot () =
    ( List.map
        (fun b ->
          ( b,
            b.split,
            Array.copy b.sports,
            b.occupants,
            Array.copy b.on_slice,
            (b.n_occupants, b.load_lo, b.load_hi) ))
        (live ()),
      Array.copy placed )
  in
  let restore (saved, saved_placed) =
    n_buses := 0;
    List.iter
      (fun (b, split, sports, occupants, on_slice, (n_occ, lo, hi)) ->
        b.split <- split;
        Array.blit sports 0 b.sports 0 (Array.length sports);
        b.occupants <- occupants;
        Array.blit on_slice 0 b.on_slice 0 (Array.length on_slice);
        b.n_occupants <- n_occ;
        b.load_lo <- lo;
        b.load_hi <- hi;
        push_bus b)
      saved;
    Array.iteri set_placed saved_placed;
    recompute_pins ()
  in
  let compact () =
    let improved = ref true in
    while !improved do
      improved := false;
      let by_load =
        List.sort (fun a b -> compare a.n_occupants b.n_occupants) (live ())
      in
      let try_retire victim =
        let saved = snapshot () in
        cap_limit := rate;
        let movers =
          List.sort
            (fun (a, _) (b, _) -> compare op_width.(b) op_width.(a))
            victim.occupants
        in
        let others = List.filter (fun b -> b != victim) (live ()) in
        n_buses := 0;
        List.iter push_bus others;
        recompute_pins ();
        nodes := 0;
        allow_fresh := false;
        let ok = assign_rec (Array.of_list (List.map fst movers)) 0 in
        allow_fresh := true;
        cap_limit := slot_cap;
        if ok then begin
          M.incr m_retired;
          improved := true;
          true
        end
        else begin
          restore saved;
          false
        end
      in
      ignore (List.exists try_retire by_load)
    done
  in
  let budgeted f =
    try f ()
    with Budget.Out_of_budget _ as e ->
      M.incr m_budget_exhausted;
      raise e
  in
  let constructive () =
    (match Fault.exhaust_heuristic () with
    | Some e -> raise (Budget.Out_of_budget e)
    | None -> ());
    nodes := 0;
    assign_rec (Array.init n_ops Fun.id) 0
  in
  match budgeted constructive with
  | false when !nodes > node_limit ->
      Log.debug "[subbus] search stopped at the node limit (%d nodes)" !nodes;
      M.incr m_budget_exhausted;
      if Mcs_obs.Events.on () then
        Mcs_obs.Events.emit ~cat:"subbus" "exhausted"
          ~args:
            [
              ("resource", Mcs_obs.Events.Str "nodes");
              ("limit", Mcs_obs.Events.Int node_limit);
              ("spent", Mcs_obs.Events.Int !nodes);
            ];
      Error
        (Exhausted
           { Budget.resource = Budget.Nodes; limit = node_limit; spent = !nodes })
  | false ->
      Log.debug "[subbus] search failed after %d nodes" !nodes;
      Error Infeasible
  | true ->
      budgeted compact;
      let slot = Array.make n_ops (0, Whole) in
      let real =
        List.mapi
          (fun h b ->
            List.iter (fun (i, s) -> slot.(i) <- (h, s)) b.occupants;
            {
              width = b.swidth;
              split_at = b.split;
              ports =
                List.filter_map
                  (fun p ->
                    if b.sports.(p) > 0 then Some (p, b.sports.(p)) else None)
                  (Mcs_util.Listx.range 0 (n + 1));
              carried =
                List.rev_map (fun (i, s) -> (order.ops.(i), s)) b.occupants;
            })
          (live ())
      in
      let position = Mcs_connect.Io_order.position order in
      Ok (real, List.map (fun op -> (op, slot.(position op))) (Cdfg.io_ops cdfg))

(* --- Scheduling over sub-slots (§6.2) --- *)

type entry = {
  e_value : string;
  e_cstep : int;
  mutable e_ops : Types.op_id list;
}

type sched_state = {
  ss_real : real_bus array;
  ss_rate : int;
  (* Occupancy per (bus, half, group); a Whole value holds both halves with
     the same entry. *)
  halves : (int * sub * int, entry) Hashtbl.t;
  ss_tentative : (Types.op_id, int * sub) Hashtbl.t;
  ss_committed : (Types.op_id, int * sub) Hashtbl.t;
  ss_budget : Budget.t;
}

let slices_of (rb : real_bus) =
  match rb.split_at with None -> [ Whole ] | Some _ -> [ Lo; Hi; Whole ]

let rb_capable cdfg (rb : real_bus) op slice =
  let width = Cdfg.io_width cdfg op in
  let fits_slice =
    match (rb.split_at, slice) with
    | None, Whole -> width <= rb.width
    | None, (Lo | Hi) -> false
    | Some lo, Lo -> width <= lo
    | Some lo, Hi -> width <= rb.width - lo
    | Some _, Whole -> width <= rb.width
  in
  let lo = Option.value ~default:rb.width rb.split_at in
  let need = port_need ~split_lo:lo width slice in
  let port p = Option.value ~default:0 (List.assoc_opt p rb.ports) in
  fits_slice
  && port (Cdfg.io_src cdfg op) >= need
  && port (Cdfg.io_dst cdfg op) >= need

let halves_of slice = match slice with Lo -> [ Lo ] | Hi -> [ Hi ] | Whole -> [ Lo; Hi ]

let slot_admissible st cdfg op ~cstep (i, slice) =
  let g = ((cstep mod st.ss_rate) + st.ss_rate) mod st.ss_rate in
  let value = Cdfg.io_value cdfg op in
  List.for_all
    (fun h ->
      match Hashtbl.find_opt st.halves (i, h, g) with
      | None -> true
      | Some e -> String.equal e.e_value value && e.e_cstep = cstep)
    (halves_of slice)

(* Capacity lookahead for the dynamic hook: after [except] takes [slot] at
   [cstep], can every remaining unscheduled I/O operation still be packed
   onto the free sub-slots?  Unsplit buses yield full-width units; split
   buses also yield half units.  Same-value operations able to ride the
   consumed slot demand nothing; other same-value groups with a common
   capable slice demand one unit. *)
let sub_repack st cdfg ~rate ~except ~slot:(si, sslice) ~cstep unscheduled =
  let g_w = ((cstep mod rate) + rate) mod rate in
  let occupied i h g =
    Hashtbl.mem st.halves (i, h, g)
    || (i = si && g = g_w && List.mem h (halves_of sslice))
  in
  let nb = Array.length st.ss_real in
  let units = ref [] in
  for i = 0 to nb - 1 do
    for g = 0 to rate - 1 do
      match (occupied i Lo g, occupied i Hi g) with
      | false, false -> units := `Full i :: !units
      | false, true -> units := `Half (i, Lo) :: !units
      | true, false -> units := `Half (i, Hi) :: !units
      | true, true -> ()
    done
  done;
  let units = Array.of_list !units in
  let cap_any op i =
    List.exists (fun sl -> rb_capable cdfg st.ss_real.(i) op sl)
      (slices_of st.ss_real.(i))
  in
  let cap_unit op = function
    | `Full i -> cap_any op i
    | `Half (i, h) -> rb_capable cdfg st.ss_real.(i) op h
  in
  let except_value = Cdfg.io_value cdfg except in
  let ops =
    List.filter
      (fun w ->
        not
          (String.equal (Cdfg.io_value cdfg w) except_value
          && rb_capable cdfg st.ss_real.(si) w sslice))
      (List.filter (fun w -> w <> except) unscheduled)
  in
  let demands =
    List.concat_map
      (fun (_, members) ->
        let common_bus =
          List.filter
            (fun i -> List.for_all (fun w -> cap_any w i) members)
            (Mcs_util.Listx.range 0 nb)
        in
        if common_bus <> [] && List.length members > 1 then [ members ]
        else List.map (fun w -> [ w ]) members)
      (Mcs_util.Listx.group_by (Cdfg.io_value cdfg) ops)
  in
  let demands = Array.of_list demands in
  let bip =
    Mcs_graph.Bipartite.create ~n_left:(Array.length demands)
      ~n_right:(Array.length units)
  in
  Array.iteri
    (fun l members ->
      Array.iteri
        (fun r u ->
          if List.for_all (fun w -> cap_unit w u) members then
            Mcs_graph.Bipartite.add_edge bip ~left:l ~right:r)
        units)
    demands;
  Mcs_graph.Bipartite.max_matching ~budget:st.ss_budget bip
  = Array.length demands

let subbus_hook ?(budget = Budget.unlimited) cdfg ~rate real assignment =
  let st =
    {
      ss_real = Array.of_list real;
      ss_rate = rate;
      halves = Hashtbl.create 64;
      ss_tentative = Hashtbl.create 64;
      ss_committed = Hashtbl.create 64;
      ss_budget = budget;
    }
  in
  List.iter
    (fun (op, slot) -> Hashtbl.replace st.ss_tentative op slot)
    assignment;
  let candidates op ~cstep =
    let unscheduled =
      List.filter
        (fun w -> not (Hashtbl.mem st.ss_committed w))
        (Cdfg.io_ops cdfg)
    in
    let all =
      List.concat
        (List.mapi
           (fun i rb ->
             List.filter_map
               (fun slice ->
                 if
                   rb_capable cdfg rb op slice
                   && slot_admissible st cdfg op ~cstep (i, slice)
                   && sub_repack st cdfg ~rate ~except:op ~slot:(i, slice)
                        ~cstep unscheduled
                 then Some (i, slice)
                 else None)
               (slices_of rb))
           (Array.to_list st.ss_real))
    in
    match Hashtbl.find_opt st.ss_tentative op with
    | Some slot when List.mem slot all ->
        slot :: List.filter (fun s -> s <> slot) all
    | _ -> all
  in
  let io_can _sched op ~cstep = candidates op ~cstep <> [] in
  let io_commit _sched op ~cstep =
    match candidates op ~cstep with
    | [] -> invalid_arg "Subbus: commit without an admissible slot"
    | ((i, slice) as slot) :: _ ->
        let g = ((cstep mod rate) + rate) mod rate in
        let entry =
          let existing =
            List.find_map
              (fun h -> Hashtbl.find_opt st.halves (i, h, g))
              (halves_of slice)
          in
          match existing with
          | Some e ->
              e.e_ops <- e.e_ops @ [ op ];
              e
          | None ->
              { e_value = Cdfg.io_value cdfg op; e_cstep = cstep; e_ops = [ op ] }
        in
        List.iter
          (fun h ->
            if not (Hashtbl.mem st.halves (i, h, g)) then
              Hashtbl.add st.halves (i, h, g) entry)
          (halves_of slice);
        Hashtbl.remove st.ss_tentative op;
        Hashtbl.replace st.ss_committed op slot
  in
  (st, { LS.io_can; io_commit })

let allocation_of st =
  let rows = ref [] in
  Hashtbl.iter
    (fun (i, h, g) e ->
      (* Report each entry once, on its lowest half. *)
      let primary =
        match h with
        | Lo -> true
        | Hi -> (
            match Hashtbl.find_opt st.halves (i, Lo, g) with
            | Some e' -> e' != e
            | None -> true)
        | Whole -> true
      in
      if primary then
        rows := ((i, h, g), (e.e_value, e.e_cstep, e.e_ops)) :: !rows)
    st.halves;
  List.sort compare !rows

let schedule_over ?(budget = Budget.unlimited) cdfg mlib cons ~rate ~dynamic
    (real, assignment) =
  let st, hook = subbus_hook ~budget cdfg ~rate real assignment in
  let hook =
        if dynamic then hook
        else
          (* Static baseline: only the initially assigned slice counts. *)
          {
            LS.io_can =
              (fun _ op ~cstep ->
                match Hashtbl.find_opt st.ss_tentative op with
                | Some ((i, slice) as _slot) ->
                    rb_capable cdfg st.ss_real.(i) op slice
                    && slot_admissible st cdfg op ~cstep (i, slice)
                | None -> false);
            io_commit =
              (fun sched op ~cstep ->
                match Hashtbl.find_opt st.ss_tentative op with
                | Some (i, slice) ->
                    ignore sched;
                    let g = ((cstep mod rate) + rate) mod rate in
                    let entry =
                      match
                        List.find_map
                          (fun h -> Hashtbl.find_opt st.halves (i, h, g))
                          (halves_of slice)
                      with
                      | Some e ->
                          e.e_ops <- e.e_ops @ [ op ];
                          e
                      | None ->
                          {
                            e_value = Cdfg.io_value cdfg op;
                            e_cstep = cstep;
                            e_ops = [ op ];
                          }
                    in
                    List.iter
                      (fun h ->
                        if not (Hashtbl.mem st.halves (i, h, g)) then
                          Hashtbl.add st.halves (i, h, g) entry)
                      (halves_of slice);
                    Hashtbl.remove st.ss_tentative op;
                    Hashtbl.replace st.ss_committed op (i, slice)
                | None -> invalid_arg "Subbus: static commit without slot");
          }
      in
      match
        Mcs_obs.Trace.with_span "ch6.schedule" (fun () ->
            LS.run ~budget cdfg mlib cons ~rate ~io_hook:hook ())
      with
      | Error f -> (
          match f.LS.kind with
          | LS.Exhausted e ->
              (* Budget exhaustion is not a property of this bus structure:
                 surface it typed so the caller's ladder stops the sweep. *)
              raise (Budget.Out_of_budget e)
          | _ ->
              if Log.enabled Log.Debug then
                List.iter
                  (fun op ->
                    if not (Mcs_sched.Schedule.is_scheduled f.LS.partial op)
                    then Log.debug "[subbus] unscheduled: %s" (Cdfg.name cdfg op))
                  (Cdfg.ops cdfg);
              Error
                (Printf.sprintf "scheduling failed at cstep %d: %s"
                   f.LS.at_cstep f.LS.reason))
      | Ok schedule ->
          let pins =
            Mcs_connect.Pins.tally ~n_partitions:(Cdfg.n_partitions cdfg)
              (List.concat_map (fun (rb : real_bus) -> rb.ports) real)
          in
          let final =
            Hashtbl.fold (fun op slot acc -> (op, slot) :: acc) st.ss_committed []
            |> List.sort compare
          in
          Ok
            {
              real_buses = real;
              initial_assignment = assignment;
              final_assignment = final;
              allocation = allocation_of st;
              schedule;
              pins;
              static_pipe_length = None;
            }
