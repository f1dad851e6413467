(* serve-mix: the mcs_serve daemon as users run it — two worker domains,
   a fresh result cache per daemon, no write-ahead log — under a closed
   loop of two client connections from this process.  Each connection
   sends its next request only after the previous reply. *)

module P = Mcs_server.Protocol
module Cl = Mcs_server.Client
module J = Mcs_engine.Job
module O = Mcs_engine.Outcome
module R = Mcs_obs.Report_json

let now = Unix.gettimeofday
let domains = 2
let connections = 2

type daemon = { pid : int; sock : string; cache : string; log : string }

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let spawn ~serve_bin ~out n =
  let name ext = Filename.concat out (Printf.sprintf "serve-%d-%d%s" (Unix.getpid ()) n ext) in
  let sock = name ".sock" and cache = name ".cache" and log_path = name ".log" in
  rm_rf sock;
  rm_rf cache;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close log)
      (fun () ->
        Unix.create_process serve_bin
          [| serve_bin; "--socket"; sock; "--domains"; string_of_int domains;
             "--cache"; cache |]
          null null log)
  in
  { pid; sock; cache; log = log_path }

let exited d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stats d =
  match Cl.connect_unix d.sock with
  | exception Unix.Unix_error _ -> None
  | c ->
      Fun.protect ~finally:(fun () -> Cl.close c) (fun () ->
          match Cl.stats c with
          | Ok s -> Some s
          | Error _ | (exception (Unix.Unix_error _ | Sys_error _ | End_of_file)) -> None)

let log_text d =
  match In_channel.with_open_text d.log In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

(* Ready once it answers a stats request (after its minor-heap re-exec). *)
let wait_ready d =
  let give_up = now () +. 60.0 in
  let rec go () =
    if exited d then failwith ("mcs_serve exited during start-up: " ^ log_text d)
    else if now () > give_up then failwith "mcs_serve did not answer within 60 s"
    else match stats d with
      | Some _ -> ()
      | None -> Unix.sleepf 0.002; go ()
  in
  go ()

(* Graceful shutdown, then SIGKILL if it has not exited within 30 s; the
   daemon is always reaped and its socket and cache removed. *)
let stop d =
  (match Cl.connect_unix d.sock with
  | exception Unix.Unix_error _ -> ()
  | c ->
      (try ignore (Cl.shutdown c) with Unix.Unix_error _ | Sys_error _ | End_of_file -> ());
      Cl.close c);
  let give_up = now () +. 30.0 in
  let rec wait () =
    if not (exited d) then
      if now () > give_up then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else (Unix.sleepf 0.01; wait ())
  in
  wait ();
  List.iter rm_rf [ d.sock; d.cache; d.log ]

let with_daemon ~serve_bin ~out n f =
  let d = spawn ~serve_bin ~out n in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> wait_ready d; f d)

type request = {
  seq : int;
  conn : int;
  job : string;
  t0 : float;
  t1 : float;
  reply : (P.reply, string) result;
}

let exchange c seq job =
  let submit = P.Submit { P.id = string_of_int seq; job = Corpus.parse job; deadline_ms = None; fallback = true } in
  match Cl.send c submit; Cl.recv c with
  | Ok (P.Reply r) when r.P.id = string_of_int seq -> Ok r
  | Ok (P.Reply r) -> Error ("reply for another request: " ^ r.P.id)
  | Ok _ -> Error "unexpected response"
  | Error m -> Error m
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception (Sys_error m | Failure m) -> Error m

(* The closed loop: requests come from one seeded stream in order; a
   connection that fails stops sending. *)
let load d ~seconds ~seed =
  let stream = Corpus.stream ~seed in
  let m = Mutex.create () in
  let next_seq = ref 0 and recs = ref [] in
  let locked f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f in
  let deadline = now () +. seconds in
  let client conn () =
    match Cl.connect_unix d.sock with
    | exception Unix.Unix_error (e, _, _) ->
        locked (fun () ->
            recs := { seq = -1; conn; job = ""; t0 = now (); t1 = now ();
                      reply = Error ("connect: " ^ Unix.error_message e) } :: !recs)
    | c ->
        let rec go () =
          if now () < deadline then begin
            let seq, job =
              locked (fun () ->
                  let s = !next_seq in
                  incr next_seq;
                  (s, Corpus.next stream))
            in
            let t0 = now () in
            let reply = exchange c seq job in
            let r = { seq; conn; job; t0; t1 = now (); reply } in
            locked (fun () -> recs := r :: !recs);
            if Result.is_ok reply then go ()
          end
        in
        go ();
        Cl.close c
  in
  let start = now () in
  List.iter Thread.join (List.init connections (fun k -> Thread.create (client k) ()));
  (List.sort (fun a b -> compare a.seq b.seq) !recs, start, now () -. start)

let outcome r = match r.reply with Ok { P.outcome = Some o; _ } -> Some o | _ -> None

let failed r =
  match outcome r with None -> true | Some o -> Score.failed o

let jobs_per_s (recs, _, wall) =
  float_of_int (List.length (List.filter (fun r -> not (failed r)) recs)) /. wall

(* Every feasible reply is re-verified (once per distinct job), and every
   reply for one job must carry the same result. *)
let verify recs =
  let first = Hashtbl.create 1024 and mismatches = ref [] in
  List.iter
    (fun r ->
      match outcome r with
      | None -> ()
      | Some o -> (
          match Hashtbl.find_opt first r.job with
          | None -> Hashtbl.add first r.job o
          | Some o0 ->
              if not (Inproc.same o0 o) then
                mismatches := (r.job, "replies for one job differ") :: !mismatches))
    recs;
  let feasible = Hashtbl.fold (fun _ o a -> if O.is_feasible o then o :: a else a) first [] in
  let errors = Verify.all feasible in
  (errors, !mismatches)

(* Only the tail is scaled by the probe ([tail_scale]); every other time
   is as measured.  The probe shares the CPUs with the daemon, so a
   change in the daemon's CPU use moves the factor too: scaling is kept
   only where it narrowed the spread.  Over two sets of ten runs it did
   not narrow throughput's (0.040 and 0.025 as measured, 0.030 and 0.034
   scaled) or set-up's (0.161 and 0.161 as measured, 0.217 and 0.152
   scaled).  It did narrow the tail's: over three sets, 30 runs, 0.089
   as measured and 0.060 scaled, with set medians 10.8% apart as
   measured and 7.4% scaled.  The median request spends most of its
   time in the daemon's 5-ms coalescing window, a wall-clock wait that
   host speed does not change (scaled, its spread doubled). *)
let e2e ?(tail_scale = Inproc.as_measured) ~setup_s ~peak_rss_mb ~verify_errors
    (recs, _, wall) =
  let attempted = List.length recs in
  let answered = List.filter (fun r -> not (failed r)) recs in
  let lat scale = List.map (fun r -> 1000.0 *. scale ~t0:r.t0 ~dt:(r.t1 -. r.t0)) answered in
  let bad = List.map fst verify_errors in
  let feasible = List.filter (fun r -> Option.fold ~none:false ~some:O.is_feasible (outcome r)) recs in
  let verified = List.filter (fun r -> not (List.mem r.job bad)) feasible in
  let penalty = Score.penalties () in
  let cost r =
    match outcome r with
    | Some o -> Score.cost ~penalty:(penalty o.O.job) o
    | None -> penalty (Corpus.parse r.job)
  in
  { Score.setup_s;
    jobs_per_s = float_of_int (List.length answered) /. wall;
    job_p50_ms = Stats.median (lat Inproc.as_measured); tail = Stats.tail (lat tail_scale);
    answered_share = Score.share (List.length answered) attempted;
    feasible_share = Score.share (List.length feasible) attempted;
    verified_share = Score.share (List.length verified) (List.length feasible);
    quality_cost =
      List.fold_left (fun a r -> a +. float_of_int (cost r)) 0.0 recs /. float_of_int attempted;
    peak_rss_mb }

let counter stats name =
  Option.value ~default:0
    (Option.bind (R.member "metrics" stats) (fun m -> Option.bind (R.member name m) R.to_int))

let field stats name =
  Option.value ~default:0 (Option.bind (R.member name stats) R.to_int)

(* The traced load: the same closed loop against a fresh daemon, with a
   third connection sampling the daemon's queue depth, then every
   distinct job it answered executed once in this process, traced, to
   split each reply's server time into execution and waiting. *)
let traced ~serve_bin ~out ~seconds ~seed ~untraced_jps =
  let lt = Layers.create () in
  let (recs, start, wall), before, after, peak =
    with_daemon ~serve_bin ~out 0 (fun d ->
        let before = Option.get (stats d) in
        let stop = Atomic.make false and peak = ref 0 in
        let poller =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                Option.iter (fun s -> peak := max !peak (field s "queue_depth")) (stats d);
                Unix.sleepf 0.02
              done)
            ()
        in
        let res = load d ~seconds ~seed in
        Atomic.set stop true;
        Thread.join poller;
        (res, before, Option.get (stats d), !peak))
  in
  List.iter
    (fun r ->
      ignore
        (Layers.add_span lt
           { Layers.job = r.seq; name = Printf.sprintf "client.request.conn%d" r.conn;
             t0 = r.t0; t1 = r.t1; parent = -1 }))
    recs;
  let exec_ms = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      if Result.is_ok r.reply && not (Hashtbl.mem exec_ms r.job) then begin
        let t0 = now () in
        ignore (Layers.exec lt ~exec:(fun j -> Mcs_engine.Pool.exec j) (Corpus.parse r.job));
        Hashtbl.add exec_ms r.job ((now () -. t0) *. 1000.0)
      end)
    recs;
  let replies = List.filter_map (fun r -> match r.reply with Ok p -> Some (r, p) | Error _ -> None) recs in
  let mean f l = if l = [] then 0.0 else List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int (List.length l) in
  let computed = List.filter (fun (_, p) -> not (p.P.cached || p.P.coalesced)) replies in
  let n = List.length replies in
  let share p = Score.share (List.length (List.filter p replies)) n in
  let delta name = float_of_int (counter after name - counter before name) in
  let traced_jps = jobs_per_s (recs, start, wall) in
  let server =
    [ ("server.client_ms", "ms", mean (fun (r, _) -> (r.t1 -. r.t0) *. 1000.0) replies);
      ("server.reply_ms", "ms", mean (fun (_, p) -> p.P.wall_ms) replies);
      ("server.wire_ms", "ms", mean (fun (r, p) -> ((r.t1 -. r.t0) *. 1000.0) -. p.P.wall_ms) replies);
      ("server.wait_ms", "ms",
       mean (fun (r, p) -> p.P.wall_ms -. Hashtbl.find exec_ms r.job) computed);
      ("server.cache_hit_share", "ratio", share (fun (_, p) -> p.P.cached));
      ("server.coalesced_share", "ratio", share (fun (_, p) -> p.P.coalesced));
      (* A batch holds the entries that reached dispatch: executed ones
         and cache hits (the daemon looks its cache up after batching). *)
      ("server.batch_mean", "jobs/batch",
       let b = delta "server.batches" in
       if b = 0.0 then 0.0
       else (delta "engine.jobs.executed" +. delta "engine.cache.hits") /. b);
      ("server.queue_depth_peak", "count", float_of_int peak);
      ("server.respawns", "count", delta "server.respawns");
      ("server.rejected", "count", delta "server.rejected") ]
  in
  Layers.print_top lt 8;
  Workload.write_spans lt
    ~path:(Workload.spans_path ~out ~seed Corpus.Serve_mix)
    ~extra:[ ("untraced_jobs_per_s", R.Float untraced_jps) ];
  (Layers.metrics lt @ server @ Layers.overhead lt ~untraced_jps ~traced_jps, recs)

let run ~seed ~seconds ~trace ~out ~serve_bin : Workload.result =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rounds = 7 in
  (* Set-up is spawning the daemon until it answers; the last of the
     rounds' daemons serves the load. *)
  let times = ref [] in
  let rec setups k =
    let t0 = now () in
    let d = spawn ~serve_bin ~out k in
    Fun.protect ~finally:(fun () -> if k < rounds then stop d) (fun () -> wait_ready d);
    times := (t0, now () -. t0) :: !times;
    if k < rounds then setups (k + 1) else d
  in
  let d = setups 1 in
  let probe = Hostspeed.create () in
  let (recs, start, wall), peak_rss_mb =
    Fun.protect ~finally:(fun () -> stop d) (fun () ->
        (* This process only waits on sockets during the load, so a
           second domain can probe the host's speed meanwhile, for the
           tail. *)
        let res = Hostspeed.during probe (fun () -> load d ~seconds ~seed) in
        (res, Score.peak_rss_mb (string_of_int d.pid)))
  in
  Printf.printf "%d requests over %d connections in %.3f s\n" (List.length recs) connections wall;
  let layers, traced_recs =
    if trace then
      traced ~serve_bin ~out ~seconds ~seed ~untraced_jps:(jobs_per_s (recs, start, wall))
    else ([], [])
  in
  let all = recs @ traced_recs in
  let verify_errors, mismatches = verify all in
  let transport =
    List.filter_map
      (fun r -> match r.reply with Error m -> Some (r.job, "unanswered: " ^ m) | Ok _ -> None)
      all
  in
  let setup_s = Workload.setup_s !times in
  let res = (recs, start, wall) in
  {
    Workload.e2e =
      e2e ~tail_scale:(Hostspeed.scale probe) ~setup_s ~peak_rss_mb ~verify_errors res;
    raw = e2e ~setup_s ~peak_rss_mb ~verify_errors res;
    host_factor = Hostspeed.factor probe;
    layers;
    attempted = List.length all;
    failed = List.length (List.filter failed all);
    errors = transport @ mismatches @ verify_errors;
  }
