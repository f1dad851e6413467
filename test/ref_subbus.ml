(* Reference implementation of the Chapter 6 sub-bus connection search:
   the list-based [Subbus.search] as it stood before its search state
   became incremental, kept verbatim as a differential oracle.  It charges
   the same [subbus.*] counters, so a test can compare the library's
   counter deltas with this one's.  Test-only; never linked into lib/. *)

open Mcs_cdfg
module M = Mcs_obs.Metrics
module Log = Mcs_obs.Log
module Budget = Mcs_resilience.Budget
module Fault = Mcs_resilience.Fault

let m_search_nodes = M.counter "subbus.search_nodes"
let m_backtracks = M.counter "subbus.backtracks"
let m_retired = M.counter "subbus.retired_buses"

type sub = Mcs_core.Subbus.sub = Lo | Hi | Whole

type real_bus = Mcs_core.Subbus.real_bus = {
  width : int;
  split_at : int option;
  ports : (int * int) list;
  carried : (Types.op_id * sub) list;
}

(* Mutable search state for one bus. *)
type sbus = {
  mutable swidth : int;
  mutable split : int option;
  sports : int array; (* r_{i,h}, bidirectional *)
  mutable assigned : (Types.op_id * sub) list;
}

let port_need ~split_lo op_width = function
  | Lo | Whole -> op_width
  | Hi -> split_lo + op_width

(* Distinct values loading one half of the bus: slice occupants plus
   whole-bus occupants.  For [Whole] the relevant load is the fuller half. *)
let half_load cdfg b half =
  List.length
    (Mcs_util.Listx.uniq String.equal
       (List.filter_map
          (fun (w, s) ->
            if s = half || s = Whole then Some (Cdfg.io_value cdfg w)
            else None)
          b.assigned))

let slice_load cdfg b slice =
  match slice with
  | Lo | Hi -> half_load cdfg b slice
  | Whole -> max (half_load cdfg b Lo) (half_load cdfg b Hi)

let search ?(budget = Budget.unlimited) cdfg cons ~rate ?slot_cap () =
  (match Fault.exhaust_heuristic () with
  | Some e -> raise (Budget.Out_of_budget e)
  | None -> ());
  let slot_cap = Option.value ~default:rate slot_cap in
  (* The cap spreads load during the constructive phase; compaction packs
     up to the physical limit (the initiation rate). *)
  let cap_limit = ref slot_cap in
  let n = Cdfg.n_partitions cdfg in
  let buses : sbus list ref = ref [] in
  let pins_used = Array.make (n + 1) 0 in
  let pin_cap p = Constraints.pins cons p in
  let ops =
    List.sort
      (fun a b ->
        let c = compare (Cdfg.io_width cdfg b) (Cdfg.io_width cdfg a) in
        if c <> 0 then c else compare a b)
      (Cdfg.io_ops cdfg)
  in
  let assigned_to : (Types.op_id, sbus * sub) Hashtbl.t = Hashtbl.create 64 in
  (* Extra pins both endpoints of [op] need to use [slice] of [b]. *)
  let extra b op slice =
    let width = Cdfg.io_width cdfg op in
    let lo = Option.value ~default:b.swidth b.split in
    let need = port_need ~split_lo:lo width slice in
    let at p = max 0 (need - b.sports.(p)) in
    (at (Cdfg.io_src cdfg op), at (Cdfg.io_dst cdfg op))
  in
  let fits b op slice =
    let width = Cdfg.io_width cdfg op in
    let slice_ok =
      match (b.split, slice) with
      | None, Whole -> width <= b.swidth
      | None, (Lo | Hi) -> false
      | Some lo, Lo -> width <= lo
      | Some lo, Hi -> width <= b.swidth - lo
      | Some _, Whole ->
          (* A value may group both (consecutive) sub-buses. *)
          width <= b.swidth
    in
    let ds, dd = extra b op slice in
    let src = Cdfg.io_src cdfg op and dst = Cdfg.io_dst cdfg op in
    let cap_ok =
      List.exists
        (fun (w, s) ->
          (s = slice)
          && String.equal (Cdfg.io_value cdfg w) (Cdfg.io_value cdfg op))
        b.assigned
      || slice_load cdfg b slice < !cap_limit
    in
    slice_ok && cap_ok
    && pins_used.(src) + ds <= pin_cap src
    && pins_used.(dst) + dd <= pin_cap dst
  in
  let commit b op slice =
    let ds, dd = extra b op slice in
    let src = Cdfg.io_src cdfg op and dst = Cdfg.io_dst cdfg op in
    let lo = Option.value ~default:b.swidth b.split in
    let need = port_need ~split_lo:lo (Cdfg.io_width cdfg op) slice in
    pins_used.(src) <- pins_used.(src) + ds;
    pins_used.(dst) <- pins_used.(dst) + dd;
    b.sports.(src) <- max b.sports.(src) need;
    b.sports.(dst) <- max b.sports.(dst) need;
    b.assigned <- (op, slice) :: b.assigned;
    Hashtbl.replace assigned_to op (b, slice)
  in
  (* Optimistic feasibility prune (see Heuristic.search): assuming maximal
     reuse of existing ports — every port absorbing up to 2 x slot_cap
     not-wider operations, the sub-bus optimum — the remaining unassigned
     operations still need some fresh pins on each partition. *)
  let pins_viable assigned_mem =
    let ok p =
      let pending = ref [] in
      List.iter
        (fun w ->
          if not (assigned_mem w) then begin
            if Cdfg.io_src cdfg w = p || Cdfg.io_dst cdfg w = p then
              pending := Cdfg.io_width cdfg w :: !pending
          end)
        ops;
      let widths = List.sort (fun a b -> compare b a) !pending in
      let ports =
        List.filter_map
          (fun b ->
            if b.sports.(p) > 0 then
              Some
                ( b.sports.(p),
                  max 0 ((2 * !cap_limit) - List.length b.assigned) )
            else None)
          !buses
      in
      let sorted_ports = List.sort (fun (a, _) (b, _) -> compare a b) ports in
      (* A port of width pw absorbs, per free cycle, one op <= pw plus
         possibly a second op fitting the remaining lines (two sub-buses
         max). *)
      let rec absorb_cycle pw rem =
        let rec take1 acc = function
          | [] -> None
          | w :: tl when w <= pw -> Some (w, List.rev_append acc tl)
          | w :: tl -> take1 (w :: acc) tl
        in
        match take1 [] rem with
        | None -> rem
        | Some (w1, rem') -> (
            let rec take2 acc = function
              | [] -> rem'
              | w :: tl when w <= pw - w1 -> List.rev_append acc tl
              | w :: tl -> take2 (w :: acc) tl
            in
            match rem' with [] -> [] | _ -> take2 [] rem')
      and absorb_port (pw, free) rem =
        if free = 0 || rem = [] then rem
        else absorb_port (pw, free - 1) (absorb_cycle pw rem)
      in
      let leftovers =
        List.fold_left (fun rem port -> absorb_port port rem) widths
          sorted_ports
      in
      let rec fresh_cost rem =
        match rem with
        | [] -> 0
        | widest :: _ ->
            let rec burn k rem =
              if k = 0 then rem else burn (k - 1) (absorb_cycle widest rem)
            in
            widest + fresh_cost (burn !cap_limit rem)
      in
      pins_used.(p) + fresh_cost leftovers <= pin_cap p
    in
    List.for_all ok (Mcs_util.Listx.range 0 (n + 1))
  in
  (* Candidate enumeration: slices of existing buses, splits of unsplit
     buses, and a fresh bus; ranked by extra pin cost first (the paper's
     scarcity-weighted reuse), then value sharing, plain before split,
     lightly-loaded slices first.  Depth-first with backtracking. *)
  let nodes = ref 0 in
  let max_nodes = 200_000 in
  let allow_fresh = ref true in
  let rec assign_rec = function
    | [] -> true
    | op :: rest ->
        incr nodes;
        M.incr m_search_nodes;
        Budget.spend_node budget;
        if !nodes > max_nodes then false
        else begin
          let width = Cdfg.io_width cdfg op in
          let src = Cdfg.io_src cdfg op and dst = Cdfg.io_dst cdfg op in
          let plain =
            List.concat_map
              (fun b ->
                match b.split with
                | None -> [ (b, Whole, `Plain) ]
                | Some _ -> [ (b, Lo, `Plain); (b, Hi, `Plain) ])
              !buses
          in
          let splits =
            (* Split points: the new operation's own width or a previous
               occupant's; occupants not fitting the first sub-bus keep
               using the whole bus (grouping both sub-buses, §6.1). *)
            List.concat_map
              (fun b ->
                match b.split with
                | Some _ -> []
                | None ->
                    let los =
                      Mcs_util.Listx.uniq ( = )
                        (width
                        :: List.map
                             (fun (w, _) -> Cdfg.io_width cdfg w)
                             b.assigned)
                    in
                    List.filter_map
                      (fun lo ->
                        if lo + width <= b.swidth then
                          Some (b, Hi, `Split lo)
                        else None)
                      los)
              !buses
          in
          let with_split b lo f =
            (* Simulate the split, including the reslotting of narrow
               occupants onto the first sub-bus. *)
            let saved_split = b.split in
            let saved_assigned = b.assigned in
            b.split <- Some lo;
            b.assigned <-
              List.map
                (fun (w, s0) ->
                  ignore s0;
                  (w, if Cdfg.io_width cdfg w <= lo then Lo else Whole))
                b.assigned;
            let r = f () in
            b.split <- saved_split;
            b.assigned <- saved_assigned;
            r
          in
          let viable =
            List.filter
              (fun (b, slice, kind) ->
                match kind with
                | `Plain -> fits b op slice
                | `Split lo -> with_split b lo (fun () -> fits b op Hi))
              (plain @ splits)
          in
          let score (b, slice, kind) =
            let g2 =
              if
                List.exists
                  (fun (w, s) ->
                    s = slice
                    && String.equal (Cdfg.io_value cdfg w)
                         (Cdfg.io_value cdfg op))
                  b.assigned
              then 1
              else 0
            in
            let ds, dd =
              match kind with
              | `Plain -> extra b op slice
              | `Split lo -> with_split b lo (fun () -> extra b op Hi)
            in
            let g_plain = match kind with `Plain -> 1 | `Split _ -> 0 in
            (-(ds + dd), g2, g_plain, -slice_load cdfg b slice)
          in
          let ranked =
            Mcs_util.Listx.take 3
              (List.sort (fun a b -> compare (score b) (score a)) viable)
          in
          let try_candidate (b, slice, kind) =
            (* Save state for backtracking. *)
            let saved_split = b.split in
            let saved_assigned = b.assigned in
            let saved_src = b.sports.(src) and saved_dst = b.sports.(dst) in
            let saved_pins_src = pins_used.(src)
            and saved_pins_dst = pins_used.(dst) in
            let saved_slots =
              List.map (fun (w, s) -> (w, (b, s))) b.assigned
            in
            (match kind with
            | `Plain -> ()
            | `Split lo ->
                b.split <- Some lo;
                (* Narrow occupants move to the first sub-bus, the rest
                   keep grouping both sub-buses. *)
                b.assigned <-
                  List.map
                    (fun (w, _) ->
                      let slot =
                        if Cdfg.io_width cdfg w <= lo then Lo else Whole
                      in
                      Hashtbl.replace assigned_to w (b, slot);
                      (w, slot))
                    b.assigned);
            commit b op slice;
            if pins_viable (Hashtbl.mem assigned_to) && assign_rec rest then true
            else begin
              M.incr m_backtracks;
              b.split <- saved_split;
              b.assigned <- saved_assigned;
              b.sports.(src) <- saved_src;
              b.sports.(dst) <- saved_dst;
              pins_used.(src) <- saved_pins_src;
              pins_used.(dst) <- saved_pins_dst;
              List.iter
                (fun (w, slot) -> Hashtbl.replace assigned_to w slot)
                saved_slots;
              Hashtbl.remove assigned_to op;
              false
            end
          in
          List.exists try_candidate ranked
          ||
          (* Fresh bus of exactly this operation's width. *)
          (!allow_fresh
          && pins_used.(src) + width <= pin_cap src
          && pins_used.(dst) + width <= pin_cap dst
          &&
          let b =
            {
              swidth = width;
              split = None;
              sports = Array.make (n + 1) 0;
              assigned = [];
            }
          in
          buses := !buses @ [ b ];
          commit b op Whole;
          if pins_viable (Hashtbl.mem assigned_to) && assign_rec rest then true
          else begin
            M.incr m_backtracks;
            buses := List.filter (fun b' -> b' != b) !buses;
            pins_used.(src) <- pins_used.(src) - width;
            pins_used.(dst) <- pins_used.(dst) - width;
            Hashtbl.remove assigned_to op;
            false
          end)
        end
  in
  (* Compaction: repeatedly try to retire a whole bus by relocating its
     traffic onto (possibly split) slices of the others — this is where
     sub-bus sharing actually buys pins back. *)
  let recompute_pins () =
    for p = 0 to n do
      pins_used.(p) <-
        Mcs_util.Listx.sum (fun b -> b.sports.(p)) !buses
    done
  in
  let snapshot () =
    ( List.map
        (fun b ->
          (b, b.swidth, b.split, Array.copy b.sports, b.assigned))
        !buses,
      Hashtbl.copy assigned_to )
  in
  let restore (saved, table) =
    buses := List.map (fun (b, _, _, _, _) -> b) saved;
    List.iter
      (fun (b, w, sp, ports, asg) ->
        b.swidth <- w;
        b.split <- sp;
        Array.blit ports 0 b.sports 0 (Array.length ports);
        b.assigned <- asg)
      saved;
    Hashtbl.reset assigned_to;
    Hashtbl.iter (fun k v -> Hashtbl.replace assigned_to k v) table;
    recompute_pins ()
  in
  let compact () =
    let improved = ref true in
    while !improved do
      improved := false;
      let by_load =
        List.sort
          (fun a b -> compare (List.length a.assigned) (List.length b.assigned))
          !buses
      in
      let try_retire victim =
        let saved = snapshot () in
        cap_limit := rate;
        let movers =
          List.sort
            (fun (a, _) (b, _) ->
              compare (Cdfg.io_width cdfg b) (Cdfg.io_width cdfg a))
            victim.assigned
        in
        buses := List.filter (fun b -> b != victim) !buses;
        recompute_pins ();
        nodes := 0;
        allow_fresh := false;
        let ok = assign_rec (List.map fst movers) in
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
  match
    nodes := 0;
    if assign_rec ops then begin
      compact ();
      Ok ()
    end
    else begin
      Log.debug "[subbus] search failed after %d nodes" !nodes;
      Error
        "Subbus.search: cannot place the I/O operations within the pin \
         budgets"
    end
  with
  | Error m -> Error m
  | Ok () ->
      let real =
        List.map
          (fun b ->
            {
              width = b.swidth;
              split_at = b.split;
              ports =
                List.filter_map
                  (fun p ->
                    if b.sports.(p) > 0 then Some (p, b.sports.(p)) else None)
                  (Mcs_util.Listx.range 0 (n + 1));
              carried = List.rev b.assigned;
            })
          !buses
      in
      let assignment =
        List.map
          (fun op ->
            let b, s = Hashtbl.find assigned_to op in
            let rec index i = function
              | [] -> assert false
              | x :: rest -> if x == b then i else index (i + 1) rest
            in
            (op, (index 0 !buses, s)))
          (Cdfg.io_ops cdfg)
      in
      Ok (real, assignment)
