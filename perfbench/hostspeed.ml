(* Host-speed normalisation.  On a shared virtual machine the same work
   runs 15-25% slower or faster from one minute to the next, whatever the
   program does, and CPU time moves with wall time.  So the benchmark
   times a fixed computation of its own (the probe) throughout a run —
   between jobs in-process, from a second domain while the daemon serves —
   and reports each measured duration as it would read on a host where
   the probe takes [reference_s]: duration * reference_s / the probe's
   median within [window_s] of that duration.  The raw measurements are
   printed beside the normalised ones.

   The probe is OCaml code owned by the benchmark — maps, sorting,
   hashing, list allocation and a backtracking search, the operations the
   synthesis flows spend their time in — so no change to the program under
   test changes it. *)

module IM = Map.Make (Int)

(* Probe median on the 2-vCPU KVM guest the bounds were set on. *)
let reference_s = 3.0e-3
let window_s = 1.0

let kernel () =
  let st = Random.State.make [| 42 |] in
  let m = ref IM.empty in
  for i = 0 to 3000 do
    m := IM.add (Random.State.int st 100_000) (string_of_int i) !m
  done;
  let l = IM.fold (fun k v a -> (k land 255, v, float_of_int k) :: a) !m [] in
  let h = Hashtbl.create 256 in
  List.iter (fun (k, v, _) -> Hashtbl.replace h v k) (List.sort compare l);
  let rec queens n row cols =
    if row = n then 1
    else
      List.fold_left
        (fun acc c ->
          if List.exists (fun (r, c') -> c = c' || abs (c - c') = row - r) cols then acc
          else acc + queens n (row + 1) ((row, c) :: cols))
        0 (List.init n Fun.id)
  in
  queens 7 0 [] + Hashtbl.length h

type t = {
  mutable samples : (float * float) list;  (** start time, seconds taken *)
  mutable last : float;
  mutable index : (float * float) array option;  (** [samples] sorted by time *)
  sink : int ref;
}

let create () = { samples = []; last = 0.0; index = None; sink = ref 0 }

let sample t n =
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    t.sink := !(t.sink) + kernel ();
    t.samples <- (t0, Unix.gettimeofday () -. t0) :: t.samples
  done;
  t.index <- None;
  t.last <- Unix.gettimeofday ()

(* One probe, recorded like the others; returns its seconds. *)
let once t =
  sample t 1;
  snd (List.hd t.samples)

(* Between jobs: three probes, at most every 200 ms. *)
let between_jobs t = if Unix.gettimeofday () -. t.last >= 0.2 then sample t 3

(* Runs [f] while a second domain probes every 200 ms, for a phase in
   which this process mostly waits on another one (the daemon). *)
let during t f =
  let stop = Atomic.make false in
  let prober =
    Domain.spawn (fun () ->
        let p = create () in
        while not (Atomic.get stop) do
          sample p 3;
          Unix.sleepf 0.2
        done;
        p.samples)
  in
  let r = Fun.protect ~finally:(fun () -> Atomic.set stop true) f in
  t.samples <- Domain.join prober @ t.samples;
  t.index <- None;
  r

let index t =
  match t.index with
  | Some a -> a
  | None ->
      let a = Array.of_list t.samples in
      Array.sort compare a;
      t.index <- Some a;
      a

let median_all t = Stats.median (List.map snd t.samples)

(* [dt] seconds that started at [t0], in reference-host seconds. *)
let scale t ~t0 ~dt =
  let a = index t in
  if Array.length a = 0 then dt
  else
    let lo = t0 -. window_s and hi = t0 +. dt +. window_s in
    let near = Array.fold_left (fun acc (ts, d) -> if ts >= lo && ts <= hi then d :: acc else acc) [] a in
    let m = if near = [] then median_all t else Stats.median near in
    dt *. reference_s /. m

(* [dt] seconds in reference-host seconds, against a probe of [probe_s]
   seconds taken next to them. *)
let scale_local ~probe_s dt = dt *. reference_s /. probe_s

(* The run's overall factor, for the report. *)
let factor t = if t.samples = [] then 1.0 else reference_s /. median_all t
