open Mcs_cdfg

type t = {
  ops : Types.op_id array;
  width : int array;
  src : int array;
  dst : int array;
  value : int array;
  n_values : int;
  classes : int array;
  width_class : int array;
}

let of_cdfg cdfg =
  let ops =
    Array.of_list
      (List.sort
         (fun a b ->
           let c = compare (Cdfg.io_width cdfg b) (Cdfg.io_width cdfg a) in
           if c <> 0 then c else compare a b)
         (Cdfg.io_ops cdfg))
  in
  let width = Array.map (Cdfg.io_width cdfg) ops in
  let interned = Hashtbl.create 64 in
  let value =
    Array.map
      (fun op ->
        let v = Cdfg.io_value cdfg op in
        match Hashtbl.find_opt interned v with
        | Some i -> i
        | None ->
            let i = Hashtbl.length interned in
            Hashtbl.add interned v i;
            i)
      ops
  in
  let classes =
    Array.of_list (List.sort_uniq (fun a b -> compare b a) (Array.to_list width))
  in
  let class_of w =
    let rec find c = if classes.(c) = w then c else find (c + 1) in
    find 0
  in
  {
    ops;
    width;
    src = Array.map (Cdfg.io_src cdfg) ops;
    dst = Array.map (Cdfg.io_dst cdfg) ops;
    value;
    n_values = Hashtbl.length interned;
    classes;
    width_class = Array.map class_of width;
  }

let length t = Array.length t.ops

let position t =
  let index = Hashtbl.create (Array.length t.ops) in
  Array.iteri (fun i op -> Hashtbl.replace index op i) t.ops;
  Hashtbl.find index
