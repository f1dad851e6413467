module C = Mcs_connect.Connection
module F = Mcs_flow.Flow
module Diag = Mcs_flow.Diag
module M = Mcs_obs.Metrics

let c_jobs = M.counter "engine.pool.jobs"
let c_forks = M.counter "engine.pool.forks"
let c_crashes = M.counter "engine.pool.crashes"
let c_timeouts = M.counter "engine.pool.timeouts"
let c_retries = M.counter "engine.pool.retries"
let c_executed = M.counter "engine.jobs.executed"

(* ---- shared requeue bookkeeping ---- *)

(* A strike ledger: how many times a given job (by canonical key) has
   taken down its executor.  The fork pool and the server supervisor
   share this bookkeeping so "how many failures before we stop retrying"
   is one policy, not two: the pool consults it on the degraded retry,
   the supervisor consults it when a worker domain dies or stalls and
   quarantines a job that reaches the limit as poison.  Mutex-guarded —
   the supervisor records strikes from the main loop while domains run. *)
module Strikes = struct
  type t = {
    lock : Mutex.t;
    counts : (string, int) Hashtbl.t;
    max_strikes : int;
  }

  let create ?(max_strikes = 2) () =
    { lock = Mutex.create (); counts = Hashtbl.create 16; max_strikes }

  let max_strikes t = t.max_strikes

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let count t key =
    with_lock t (fun () ->
        Option.value ~default:0 (Hashtbl.find_opt t.counts key))

  let poisoned t key = count t key >= t.max_strikes

  (* Record one strike; [`Poisoned n] once the key reaches the limit. *)
  let record t key =
    with_lock t (fun () ->
        let n =
          1 + Option.value ~default:0 (Hashtbl.find_opt t.counts key)
        in
        Hashtbl.replace t.counts key n;
        if n >= t.max_strikes then `Poisoned n else `Retry n)

  let forgive t key = with_lock t (fun () -> Hashtbl.remove t.counts key)
end

(* ---- in-process execution ---- *)

let feasible ?refine job ~pins ~pipe_length ~fu_count ~check ~degraded ~solver
    =
  {
    Outcome.job;
    status = Outcome.Feasible;
    pins;
    pipe_length;
    fu_count;
    check;
    degraded;
    solver;
    refine;
  }

let settled ?solver job status =
  {
    Outcome.job;
    status;
    pins = [];
    pipe_length = 0;
    fu_count = 0;
    check = None;
    degraded = [];
    solver;
    refine = None;
  }

(* The job's own share of the hybrid-arithmetic counters: deltas across
   the flow run, so a forked worker (counters inherited from the parent)
   and the daemon's long-lived domains report the same thing. *)
let c_certify_ok = M.counter "ilp.certify.ok"
let c_certify_fail = M.counter "ilp.certify.fail"
let c_arith_fallbacks = M.counter "bb.arith_fallbacks"

let with_solver_stats f =
  let ok0 = M.count c_certify_ok
  and fail0 = M.count c_certify_fail
  and fb0 = M.count c_arith_fallbacks in
  let r = f () in
  let stats =
    {
      Outcome.certify_ok = M.count c_certify_ok - ok0;
      certify_fail = M.count c_certify_fail - fail0;
      arith_fallbacks = M.count c_arith_fallbacks - fb0;
    }
  in
  (r, Some stats)

(* Workers are forked, so the only channel for a per-job budget is the
   environment: MCS_DEADLINE_MS (wall milliseconds) makes every solver in
   the flow share one deadline, with the degradation ladder behind it.
   Unset, empty or unparsable means unlimited — a budget mishap must
   never change what a job computes. *)
let policy_of_env () =
  match Sys.getenv_opt "MCS_DEADLINE_MS" with
  | None -> F.default_policy
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some ms when ms > 0. ->
          {
            F.default_policy with
            F.budget = Mcs_resilience.Budget.make ~deadline_ms:ms ();
          }
      | Some _ | None -> F.default_policy)

(* Every job routes through the unified flow API; the checker level comes
   from MCS_CHECK (inherited by forked workers, so a sweep's verdicts are
   uniform), and its verdict rides on the outcome into caches and
   mcs-dse/1 reports.  An explicit [policy] (the server's per-request
   deadline) overrides the MCS_DEADLINE_MS environment channel. *)
let exec_diag_raw ?policy (job : Job.t) =
  M.incr c_executed;
  match Job.resolve job.Job.design with
  | Error m -> (settled job (Outcome.Infeasible m), None)
  | Ok d -> (
      let flow, mode =
        match job.Job.flow with
        | Job.Ch3 -> (F.Ch3, C.Unidir)
        | Job.Ch4_unidir -> (F.Ch4, C.Unidir)
        | Job.Ch4_bidir -> (F.Ch4, C.Bidir)
        | Job.Ch5 -> (F.Ch5, C.Bidir)
        | Job.Ch6 -> (F.Ch6, C.Bidir)
      in
      let spec =
        F.spec_of_design ?pipe_length:job.Job.pipe_length ~mode ~flow d
          ~rate:job.Job.rate
      in
      let level = Mcs_check.level_of_env () in
      let policy =
        match policy with Some p -> p | None -> policy_of_env ()
      in
      let run, solver =
        with_solver_stats (fun () -> Mcs_check.run ~level ~policy flow spec)
      in
      match run with
      | Error dg ->
          ( settled ?solver job (Outcome.Infeasible (Diag.message dg)),
            Some dg )
      | Ok r ->
          (* The optional refinement stage: anytime-improve the result
             under the same policy budget (so a per-request deadline
             bounds refinement too), then report the incumbent.  The
             telemetry rides on the outcome into caches and reports. *)
          let r, refine =
            if job.Job.refine <= 0 then (r, None)
            else
              let module R = Mcs_refine.Refine in
              let before = R.objective r in
              let out = R.improve ~max_iters:job.Job.refine ~policy spec r in
              let steps =
                List.map
                  (fun (it : R.iteration) ->
                    {
                      Outcome.action = it.R.action;
                      objective = it.R.objective_after;
                      step_accepted = it.R.accepted;
                      step_pivots = it.R.pivots;
                    })
                  out.R.iterations
              in
              ( out.R.result,
                Some
                  {
                    Outcome.steps;
                    objective_start = before;
                    objective_end = R.objective out.R.result;
                    accepted =
                      List.length
                        (List.filter (fun (it : R.iteration) -> it.R.accepted)
                           out.R.iterations);
                    fixed_point = out.R.fixed_point;
                    refine_exhausted = out.R.exhausted;
                  } )
          in
          let check =
            match level with
            | Mcs_flow.Pass.Off -> None
            | Mcs_flow.Pass.Warn | Mcs_flow.Pass.Strict ->
                let n = List.length (List.filter Diag.is_error r.F.diags) in
                Some (if n = 0 then Outcome.Clean else Outcome.Violations n)
          in
          ( feasible ?refine job ~pins:r.F.pins ~pipe_length:r.F.pipe_length
              ~fu_count:(F.fus_total r) ~check ~degraded:r.F.degraded ~solver,
            None ))

let exec_diag ?policy job =
  try exec_diag_raw ?policy job with
  | Invalid_argument m | Failure m ->
      (settled job (Outcome.Infeasible m), None)
  | e -> (settled job (Outcome.Crashed (Printexc.to_string e)), None)

let exec ?policy job = fst (exec_diag ?policy job)

(* ---- the fork pool ---- *)

type worker_state = {
  pid : int;
  fd : Unix.file_descr;
  idx : int;
  buf : Buffer.t;
  deadline : float option;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with
  | Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0

let rec select_retry fds tmo =
  try Unix.select fds [] [] tmo
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds tmo

let status_msg = function
  | Unix.WEXITED 0 -> "worker replied with an unparsable result"
  | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "worker killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "worker stopped by signal %d" s

let spawn ?(crash = false) worker job idx ~timeout =
  (* Duplicated channel buffers in the child would replay the parent's
     pending output; the child talks only through its pipe. *)
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  let r, w = Unix.pipe () in
  M.incr c_forks;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (* The child's log lines interleave with the parent's on stderr;
         the job hash makes them attributable. *)
      Mcs_obs.Log.set_field "job" (Job.hash job);
      if crash then Unix._exit 3;
      (match worker job with
      | o ->
          (try write_all w (Outcome.to_string o) with _ -> ());
          (try Unix.close w with _ -> ());
          Unix._exit 0
      | exception _ -> Unix._exit 3)
  | pid ->
      Unix.close w;
      if Mcs_obs.Events.on () then
        Mcs_obs.Events.emit ~cat:"pool" "fork"
          ~args:
            [
              ("job", Mcs_obs.Events.Str (Job.hash job));
              ("pid", Mcs_obs.Events.Int pid);
            ];
      {
        pid;
        fd = r;
        idx;
        buf = Buffer.create 256;
        deadline =
          Option.map (fun t -> Unix.gettimeofday () +. t) timeout;
      }

(* ---- shared sweep bookkeeping ---- *)

(* Everything that makes a sweep's results deterministic regardless of
   execution mode lives here, once: cache prefill, the single degraded
   retry (with its halved-deadline environment discipline), store-back
   of freshly computed settled results, and submission-order assembly.
   [drain ~degraded indices ~finish] is the only mode-specific part —
   fork-and-select or in-process — and must call [finish i outcome]
   exactly once per index.  Extracted so the daemon's in-process mode
   and the CLI's fork mode cannot drift. *)
let run_generic ?cache ?(retry = false) ?strikes ~halve_timeout ~drain
    (joblist : Job.t array) =
  let n = Array.length joblist in
  M.incr c_jobs ~n;
  let results = Array.make n None in
  let fresh = Array.make n false in
  (match cache with
  | None -> ()
  | Some c ->
      Array.iteri
        (fun i job ->
          match Cache.lookup c job with
          | Some o -> results.(i) <- Some o
          | None -> ())
        joblist);
  let finish i outcome =
    results.(i) <- Some outcome;
    fresh.(i) <- true
  in
  drain ~degraded:false
    (List.filter (fun i -> results.(i) = None) (Mcs_util.Listx.range 0 n))
    ~finish;
  (if retry then
     let failed =
       List.filter
         (fun i ->
           match results.(i) with
           | Some { Outcome.status = Outcome.Crashed _ | Outcome.Timed_out; _ }
             ->
               true
           | _ -> false)
         (Mcs_util.Listx.range 0 n)
     in
     (* With a shared strike ledger, each failure is a strike and a job
        already at the limit is left settled as-is instead of retried —
        the same circuit breaker the server supervisor applies to jobs
        that kill worker domains. *)
     let failed =
       match strikes with
       | None -> failed
       | Some s ->
           List.filter
             (fun i ->
               match Strikes.record s (Job.to_string joblist.(i)) with
               | `Retry _ -> true
               | `Poisoned _ -> false)
             failed
     in
     if failed <> [] then begin
       M.incr c_retries ~n:(List.length failed);
       if Mcs_obs.Events.on () then
         List.iter
           (fun i ->
             Mcs_obs.Events.emit ~cat:"pool" "retry"
               ~args:[ ("job", Mcs_obs.Events.Str (Job.hash joblist.(i))) ])
           failed;
       (* One retry, in degraded mode: half the deadline (or half the pool
          timeout when no deadline was set) so the flows' ladders have
          room to land inside the original allowance.  The environment is
          the channel because forked workers read it on entry — and the
          in-process mode's default worker reads it per job, so both modes
          see the same halved budget. *)
       let prev = Sys.getenv_opt "MCS_DEADLINE_MS" in
       let halved =
         match Option.bind prev float_of_string_opt with
         | Some ms when ms > 0. -> Some (ms /. 2.)
         | Some _ | None ->
             Option.map (fun t -> t *. 1000. /. 2.) halve_timeout
       in
       (match halved with
       | Some ms -> Unix.putenv "MCS_DEADLINE_MS" (Printf.sprintf "%.0f" ms)
       | None -> ());
       Fun.protect
         ~finally:(fun () ->
           match prev with
           | Some v -> Unix.putenv "MCS_DEADLINE_MS" v
           | None ->
               if halved <> None then Unix.putenv "MCS_DEADLINE_MS" "")
         (fun () -> drain ~degraded:true failed ~finish)
     end);
  (match cache with
  | None -> ()
  | Some c ->
      Array.iteri
        (fun i computed ->
          if computed then
            match results.(i) with
            | Some o -> Cache.store c joblist.(i) o
            | None -> ())
        fresh);
  Array.to_list
    (Array.mapi
       (fun i r ->
         match r with
         | Some o -> o
         | None -> settled joblist.(i) (Outcome.Crashed "result lost"))
       results)

let run ?(jobs = 1) ?timeout ?cache ?(worker = fun j -> exec j)
    ?(retry = false) ?strikes joblist =
  let slots = max 1 jobs in
  let joblist = Array.of_list joblist in
  (* The crash-worker:N fault kills the first N forked workers on entry;
     with [retry] the pool then demonstrates recovery. *)
  let crashes_left = ref (Mcs_resilience.Fault.crash_workers ()) in
  let drain ~degraded:_ indices ~finish =
  let pending = ref indices in
  let running = ref [] in
  let finish_worker wk outcome =
    running := List.filter (fun w -> w.pid <> wk.pid) !running;
    (try Unix.close wk.fd with Unix.Unix_error _ -> ());
    if Mcs_obs.Events.on () then
      Mcs_obs.Events.emit ~cat:"pool" "join"
        ~args:
          [
            ("job", Mcs_obs.Events.Str (Job.hash joblist.(wk.idx)));
            ("pid", Mcs_obs.Events.Int wk.pid);
            ( "status",
              Mcs_obs.Events.Str
                (match outcome.Outcome.status with
                | Outcome.Feasible -> "feasible"
                | Outcome.Infeasible _ -> "infeasible"
                | Outcome.Crashed _ -> "crashed"
                | Outcome.Timed_out -> "timed-out") );
          ];
    finish wk.idx outcome
  in
  while !pending <> [] || !running <> [] do
    while !pending <> [] && List.length !running < slots do
      let idx = List.hd !pending in
      pending := List.tl !pending;
      let crash = !crashes_left > 0 in
      if crash then decr crashes_left;
      running := spawn ~crash worker joblist.(idx) idx ~timeout :: !running
    done;
    (* Expiry first, and unconditionally: a worker past its deadline is
       reported [Timed_out] even if its reply has already arrived, so a
       zero timeout gives a deterministic outcome. *)
    let now = Unix.gettimeofday () in
    let expired =
      List.filter
        (fun wk ->
          match wk.deadline with Some d -> d <= now | None -> false)
        !running
    in
    List.iter
      (fun wk ->
        (try Unix.kill wk.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry wk.pid);
        M.incr c_timeouts;
        finish_worker wk (settled joblist.(wk.idx) Outcome.Timed_out))
      expired;
    if !running <> [] then begin
      let tmo =
        match List.filter_map (fun wk -> wk.deadline) !running with
        | [] -> -1.0
        | ds ->
            Float.max 0.0
              (List.fold_left Float.min Float.infinity ds
              -. Unix.gettimeofday ())
      in
      let readable, _, _ =
        select_retry (List.map (fun wk -> wk.fd) !running) tmo
      in
      let chunk = Bytes.create 4096 in
      List.iter
        (fun fd ->
          match List.find_opt (fun wk -> wk.fd = fd) !running with
          | None -> ()
          | Some wk -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  (* EOF: the worker wrote its reply (if any) and died. *)
                  let st = waitpid_retry wk.pid in
                  let outcome =
                    match
                      Outcome.of_string (String.trim (Buffer.contents wk.buf))
                    with
                    | Ok o when Job.equal o.Outcome.job joblist.(wk.idx) -> o
                    | Ok _ | Error _ ->
                        M.incr c_crashes;
                        settled joblist.(wk.idx)
                          (Outcome.Crashed (status_msg st))
                  in
                  finish_worker wk outcome
              | k -> Buffer.add_subbytes wk.buf chunk 0 k
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        readable
    end
  done
  in
  run_generic ?cache ~retry ?strikes ~halve_timeout:timeout ~drain joblist

(* ---- in-process execution over the shared bookkeeping ---- *)

let run_local ?policy ?cache ?worker ?(retry = false) ?strikes joblist =
  let joblist = Array.of_list joblist in
  let job_worker ~degraded job =
    match worker with
    | Some w -> w job
    | None ->
        (* On the degraded retry an explicit policy halves like the
           environment channel would; the default (env-derived) policy is
           re-read per job, so the run_generic halved MCS_DEADLINE_MS is
           already in effect. *)
        let policy =
          match policy with
          | Some p when degraded ->
              Some
                {
                  p with
                  F.budget = Mcs_resilience.Budget.halve p.F.budget;
                }
          | p -> p
        in
        exec ?policy job
  in
  (* Sequential drain doubles as the warm-start chain: a job's payload is
     imported before it runs, and the settled registry is handed to the
     next job of the drain (unless a payload already rides on it).  The
     fork pool has no such chaining — bases do not survive the process
     boundary. *)
  let drain ~degraded indices ~finish =
    let rec go = function
      | [] -> ()
      | i :: rest ->
          let job = joblist.(i) in
          (match Job.warm job with
          | [] -> ()
          | entries -> Mcs_ilp.Warm.import entries);
          let outcome =
            try job_worker ~degraded job
            with e -> settled job (Outcome.Crashed (Printexc.to_string e))
          in
          (match rest with
          | j :: _ when Job.warm joblist.(j) = [] ->
              Job.set_warm joblist.(j) (Mcs_ilp.Warm.export_all ())
          | _ -> ());
          finish i outcome;
          go rest
    in
    go indices
  in
  run_generic ?cache ~retry ?strikes ~halve_timeout:None ~drain joblist
