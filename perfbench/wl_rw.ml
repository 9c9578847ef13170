(* replicated-rw: a 3-replica [probcons replica-node] deployment with
   its state directories on the local disk.

   Steady phase: one closed-loop [Client.Multi] client ([writers])
   cycling put, plain get, linearizable get, until the deployment has
   acknowledged [writes_per_second * seconds] puts — a fixed count, so
   the Raft log (a put and a read barrier per cycle) covers the same
   length range on every commit whatever the write speed. The count
   keeps the log near 900 entries, where a commit is bound by the 4 ms
   pump tick: past ~1000 entries every dirty pump cycle's whole-log
   rewrite and fsync take over, latency climbs with the log and steps
   up abruptly near 1700 entries on a 2-core host, and the figures then
   follow the host's disk and CPU noise more than the code. The growth
   stays visible in storage.save_ms_* and ref_cpu_us_per_op. One third of
   the operations are fast local reads, so the median lands inside the
   commit-latency cluster, not on the boundary between the two.

   Fault phase: puts on a fixed 20/s schedule while
   the leader is SIGKILLed and restarted [kills] times. Then every
   acknowledged put is read back behind a linearizable barrier and all
   replicas must agree on applied count and digest. *)

open Util
module W = Service.Wire
module C = Service.Client
module M = Service.Client.Multi

let replicas = 3
(* One client: with two, how many operations share a pump cycle (and
   its whole-log persist) depends on how their requests happen to
   interleave, so the work per operation followed the host's timing. *)
let writers = 1
let writes_per_second = 30.
let setup_reps = 5
let idle_s = 2.
let fault_rate = 20.
let kills = 3

(* Constant 5 ms pauses between failover attempts, so a client notices
   a new leader within one poll instead of after a grown backoff. *)
let backoff = { C.default_backoff with C.initial = 0.005; multiplier = 1.; max_sleep = 0.005; jitter = 0. }

type deployment = {
  n : int;
  base : int;
  dir : string;
  pids : int option array;
  generation : int array;  (** Restarts per replica, names metrics files. *)
  metrics : bool;
  cpu : int option;  (** The CPU every replica is pinned to. *)
}

let service_port d i = Replica.Driver.service_port ~base_port:d.base ~replicas:d.n i
let targets d = List.init d.n (fun i -> C.Tcp (service_port d i))
let metrics_file d i g = Filename.concat d.dir (Printf.sprintf "metrics-%d-%d.jsonl" i g)

let spawn ctx d i =
  let argv =
    [
      ctx.bin; "replica-node"; "--id"; string_of_int i; "--replicas"; string_of_int d.n;
      "--base-port"; string_of_int d.base; "--service-port"; string_of_int (service_port d i);
      "--state-dir"; Filename.concat d.dir (Printf.sprintf "state-%d" i);
    ]
    @ (if d.metrics then [ "--metrics"; metrics_file d i d.generation.(i) ] else [])
  in
  let argv = (match d.cpu with Some c -> [ "taskset"; "-c"; string_of_int c ] | None -> []) @ argv in
  d.pids.(i) <-
    Some
      (Proc.spawn ~name:(Printf.sprintf "replica-%d" i)
         ~log:(Filename.concat d.dir (Printf.sprintf "replica-%d.log" i))
         (Array.of_list argv))

let stop_replica ?(signal = Sys.sigterm) d i =
  match d.pids.(i) with
  | Some pid ->
      Proc.stop ~signal pid;
      d.pids.(i) <- None;
      d.generation.(i) <- d.generation.(i) + 1
  | None -> ()

let stop_all d = for i = 0 to d.n - 1 do stop_replica d i done

(* An acknowledged put: its name, canonical scenario JSON and nonce. *)
type acked = { name : string; scenario : string; nonce : int }

let put_query ~name ~scenario ~nonce = W.Scenario_put { name; scenario; nonce }

(* Retry [q] through [multi] until it succeeds or [timeout] passes. A
   retried put re-encodes to the same command id, which replicas apply
   at most once, so retrying across a failover is safe. *)
let call_until multi ~id ~timeout q =
  let deadline = now () +. timeout in
  let rec go () =
    match M.call ~timeout:(Float.max 0.1 (deadline -. now ())) multi ~id q with
    | Ok j -> Ok j
    | Error _ when now () < deadline -> Thread.delay 0.005; go ()
    | Error (code, msg) -> Error (W.code_string code ^ ": " ^ msg)
  in
  go ()

(* Spawn a fresh deployment and time spawn → first acknowledged put. *)
let start ctx ~cpu =
  let n = replicas in
  let base = Proc.free_ports (n + (n * n) + n) in
  let d =
    {
      n;
      base;
      dir = Proc.fresh_dir "replicated-rw";
      pids = Array.make n None;
      generation = Array.make n 0;
      metrics = ctx.trace;
      cpu;
    }
  in
  let t0 = now () in
  for i = 0 to n - 1 do spawn ctx d i done;
  let multi = M.create ~backoff ~timeout:20. (targets d) in
  let scenario = Corpus.put_scenario ~seed:ctx.seed ~writer:99 0 in
  match call_until multi ~id:1 ~timeout:60. (put_query ~name:"setup" ~scenario ~nonce:1) with
  | Ok _ ->
      let setup = now () -. t0 in
      M.close multi;
      (d, setup, { name = "setup"; scenario = Obs.Json.to_string (Probcons.Scenario.to_json scenario); nonce = 1 })
  | Error e -> failwith ("replicated-rw: deployment never acknowledged a put: " ^ e)

let status_of d i =
  match C.connect ~wire:3 ~retry_for:0.2 (C.Tcp (service_port d i)) with
  | c -> (
      Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
      match C.call ~timeout:1. c ~id:7 W.Replica_status with Ok j -> Some j | Error _ -> None)
  | exception _ -> None

let status_int j key = Option.value (Option.bind (Obs.Json.member key j) Obs.Json.to_int) ~default:(-1)
let status_role j = Option.bind (Obs.Json.member "role" j) Obs.Json.to_string_opt

let find_leader d ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    let best = ref None in
    for i = 0 to d.n - 1 do
      if d.pids.(i) <> None then
        match status_of d i with
        | Some j when status_role j = Some "leader" -> (
            match !best with
            | Some (_, t) when t >= status_int j "term" -> ()
            | _ -> best := Some (i, status_int j "term"))
        | _ -> ()
    done;
    match !best with
    | Some b -> Some b
    | None when now () < deadline -> Thread.delay 0.01; go ()
    | None -> None
  in
  go ()

(* --- correctness helpers --------------------------------------------- *)

let check_get reply (a : acked) =
  match reply with
  | Error (code, msg) -> Some (Printf.sprintf "get %s: %s %s" a.name (W.code_string code) msg)
  | Ok j -> (
      let found = Obs.Json.member "found" j = Some (Obs.Json.Bool true) in
      let scen = Option.map Obs.Json.to_string (Obs.Json.member "scenario" j) in
      let nonce = Option.bind (Obs.Json.member "nonce" j) Obs.Json.to_int in
      if not found then Some (Printf.sprintf "acknowledged put %s not found" a.name)
      else if scen <> Some a.scenario || nonce <> Some a.nonce then
        Some (Printf.sprintf "get %s returned another value than the acknowledged put" a.name)
      else None)

(* --- phases ------------------------------------------------------------ *)

type steady = {
  put_lat : float array;
  get_lat : float array;
  lin_lat : float array;
  all_lat : float array;
  done_at : float array;  (** Completion time of each [all_lat] entry. *)
  started : float;
  seconds : float;
  acked : acked list;
  failures : string list;
  switches : int;
  attempted : int;
  lag_max : int;
}

let steady_phase (ctx : ctx) d ~target =
  let acked_total = Atomic.make 0 in
  let mutex = Mutex.create () in
  let put_lat = Fvec.create () and get_lat = Fvec.create () and lin_lat = Fvec.create () in
  let all_lat = Fvec.create () in
  let acked = ref [] and failures = ref [] and switches = ref 0 and attempted = ref 0 in
  let done_at = Fvec.create () in
  let record v dt =
    Mutex.lock mutex;
    Fvec.push v dt;
    Fvec.push all_lat dt;
    Fvec.push done_at (now ());
    incr attempted;
    Mutex.unlock mutex
  in
  let fail msg =
    Mutex.lock mutex;
    incr attempted;
    failures := msg :: !failures;
    Mutex.unlock mutex
  in
  let writer w () =
    let multi = M.create ~backoff ~timeout:10. (targets d) in
    let last = ref None and current = ref (M.current multi) in
    let j = ref 0 in
    while Atomic.get acked_total < target && List.length !failures < 20 do
      let t0 = now () in
      (match (!j mod 3, !last) with
      | 0, _ ->
          let name = Corpus.put_name ~writer:w !j in
          let scenario = Corpus.put_scenario ~seed:ctx.seed ~writer:w !j in
          let nonce = !j + 1 in
          (match call_until multi ~id:!j ~timeout:20. (put_query ~name ~scenario ~nonce) with
          | Ok _ ->
              record put_lat (now () -. t0);
              let a = { name; scenario = Obs.Json.to_string (Probcons.Scenario.to_json scenario); nonce } in
              Mutex.lock mutex;
              acked := a :: !acked;
              Mutex.unlock mutex;
              last := Some a;
              Atomic.incr acked_total
          | Error e -> fail (Printf.sprintf "put %s: %s" name e))
      | k, Some a ->
          let linearizable = k = 2 in
          let reply =
            Result.map_error
              (fun e -> (W.Internal, e))
              (call_until multi ~id:!j ~timeout:20. (W.Scenario_get { name = a.name; linearizable }))
          in
          let dt = now () -. t0 in
          (match check_get reply a with
          | None -> record (if linearizable then lin_lat else get_lat) dt
          | Some e -> fail e)
      | _, None -> ());
      if M.current multi <> !current then begin
        current := M.current multi;
        Mutex.lock mutex;
        incr switches;
        Mutex.unlock mutex
      end;
      incr j
    done;
    M.close multi
  in
  (* Traced runs scrape replica_status every 250 ms for the largest gap
     between the leader's commit index and a replica's applied count. *)
  let lag_max = ref 0 and writing = Atomic.make true in
  let scraper () =
    while Atomic.get writing do
      let st = List.filter_map (status_of d) (List.init d.n Fun.id) in
      let commit = List.fold_left (fun m j -> max m (status_int j "commit_index")) 0 st in
      List.iter (fun j -> lag_max := max !lag_max (commit - status_int j "applied")) st;
      Thread.delay 0.25
    done
  in
  let t0 = now () in
  let scrape = if ctx.trace then Some (Thread.create scraper ()) else None in
  let threads = List.init writers (fun w -> Thread.create (writer w) ()) in
  List.iter Thread.join threads;
  let seconds = now () -. t0 in
  Atomic.set writing false;
  Option.iter Thread.join scrape;
  {
    put_lat = Fvec.to_array put_lat;
    get_lat = Fvec.to_array get_lat;
    lin_lat = Fvec.to_array lin_lat;
    all_lat = Fvec.to_array all_lat;
    done_at = Fvec.to_array done_at;
    started = t0;
    seconds;
    acked = !acked;
    failures = List.rev !failures;
    switches = !switches;
    attempted = !attempted;
    lag_max = !lag_max;
  }

type fault = {
  failover_ms : float array;
  catchup_ms : float array;
  f_acked : acked list;
  f_failures : string list;
  f_attempted : int;
  f_switches : int;
  elections : int;  (** Term changes seen across the kills. *)
}

(* Fixed-rate puts from one client while the leader is killed and
   restarted [kills] times. *)
let fault_phase (ctx : ctx) d =
  let mutex = Mutex.create () in
  let acks = ref [] (* ack times *) and acked = ref [] and failures = ref [] in
  let attempted = ref 0 and switches = ref 0 in
  let stop = Atomic.make false in
  let putter () =
    let multi = M.create ~backoff ~timeout:20. (targets d) in
    let current = ref (M.current multi) in
    let t0 = now () in
    let j = ref 0 in
    while not (Atomic.get stop) do
      let due = t0 +. (float_of_int !j /. fault_rate) in
      let wait = due -. now () in
      if wait > 0. then Thread.delay wait;
      let name = Corpus.put_name ~writer:writers !j in
      let scenario = Corpus.put_scenario ~seed:ctx.seed ~writer:writers !j in
      let nonce = !j + 1 in
      let r = call_until multi ~id:!j ~timeout:20. (put_query ~name ~scenario ~nonce) in
      let t = now () in
      Mutex.lock mutex;
      incr attempted;
      (match r with
      | Ok _ ->
          acks := t :: !acks;
          acked := { name; scenario = Obs.Json.to_string (Probcons.Scenario.to_json scenario); nonce } :: !acked
      | Error e -> failures := Printf.sprintf "fault-phase put %s: %s" name e :: !failures);
      if M.current multi <> !current then begin
        current := M.current multi;
        incr switches
      end;
      Mutex.unlock mutex;
      incr j
    done;
    M.close multi
  in
  let th = Thread.create putter () in
  let failover = Fvec.create () and catchup = Fvec.create () in
  let errors = ref [] in
  let terms = ref [] in
  (try
     for _ = 1 to kills do
       Thread.delay 0.3;
       match find_leader d ~timeout:15. with
       | None -> failwith "no leader before the kill"
       | Some (leader, term) ->
           terms := term :: !terms;
           let t_kill = now () in
           stop_replica ~signal:Sys.sigkill d leader;
           let deadline = t_kill +. 30. in
           let rec await () =
             Mutex.lock mutex;
             let next = List.find_opt (fun t -> t > t_kill) !acks in
             Mutex.unlock mutex;
             match next with
             | Some _ ->
                 Mutex.lock mutex;
                 let first = List.fold_left (fun m t -> if t > t_kill then Float.min m t else m) infinity !acks in
                 Mutex.unlock mutex;
                 Fvec.push failover (1000. *. (first -. t_kill))
             | None when now () < deadline -> Thread.delay 0.002; await ()
             | None -> failwith "no put was acknowledged after the leader kill"
           in
           await ();
           (* Restart from the killed replica's state directory and time
              its catch-up to the leader's commit index. *)
           let target_commit =
             match find_leader d ~timeout:15. with
             | Some (l, term) ->
                 terms := term :: !terms;
                 (match status_of d l with Some j -> status_int j "commit_index" | None -> 0)
             | None -> 0
           in
           let t_restart = now () in
           spawn ctx d leader;
           let deadline = t_restart +. 30. in
           let rec caught_up () =
             match status_of d leader with
             | Some j when status_int j "applied" >= target_commit - 1 ->
                 Fvec.push catchup (1000. *. (now () -. t_restart))
             | _ when now () < deadline -> Thread.delay 0.005; caught_up ()
             | _ -> failwith "restarted replica never caught up"
           in
           caught_up ()
     done
   with Failure e -> errors := e :: !errors);
  Atomic.set stop true;
  Thread.join th;
  {
    failover_ms = Fvec.to_array failover;
    catchup_ms = Fvec.to_array catchup;
    f_acked = !acked;
    f_failures = List.rev !failures @ !errors;
    f_attempted = !attempted;
    f_switches = !switches;
    elections =
      (match !terms with
      | [] -> 0
      | l -> List.fold_left max min_int l - List.fold_left min max_int l);
  }

(* Linearizable read-back of every acknowledged put: one barrier read
   through the leader, then each name from that leader's applied state
   (which the barrier made current), with the leader's term checked
   unchanged around the sweep. *)
let rec read_back ?(attempts = 3) d acked =
  let multi = M.create ~backoff ~timeout:20. (targets d) in
  Fun.protect ~finally:(fun () -> M.close multi) @@ fun () ->
  match acked with
  | [] -> [ "no acknowledged puts to read back" ]
  | last :: _ -> (
      let term_of i = Option.map (fun j -> (status_role j, status_int j "term")) (status_of d i) in
      match call_until multi ~id:1 ~timeout:30. (W.Scenario_get { name = last.name; linearizable = true }) with
      | Error e -> [ "linearizable read-back failed: " ^ e ]
      | Ok _ ->
          let leader = M.current multi in
          let before = term_of leader in
          let errors =
            List.filter_map
              (fun a ->
                check_get
                  (Result.map_error
                     (fun e -> (W.Internal, e))
                     (call_until multi ~id:2 ~timeout:20. (W.Scenario_get { name = a.name; linearizable = false })))
                  a)
              acked
          in
          let after = term_of leader in
          let stable =
            M.current multi = leader && before = after
            && Option.map fst before = Some (Some "leader")
          in
          if stable then errors
          else if attempts > 1 then (
            (* A restarted replica may still force an election; the
               sweep only proves linearizability under one leader. *)
            Thread.delay 0.2;
            read_back ~attempts:(attempts - 1) d acked)
          else "leadership changed during every read-back attempt" :: errors)

(* All replicas must converge on the same applied count and digest. *)
let agreement d =
  let deadline = now () +. 15. in
  let rec go () =
    let st = List.init d.n (status_of d) in
    let views = List.map (Option.map (fun j -> (status_int j "applied", status_int j "digest"))) st in
    match views with
    | Some v :: rest when List.for_all (( = ) (Some v)) rest -> Ok (v, st)
    | _ when now () < deadline -> Thread.delay 0.05; go ()
    | _ ->
        Error
          (Printf.sprintf "replicas disagree on applied/digest: %s"
             (String.concat "; "
                (List.map
                   (function Some (a, g) -> Printf.sprintf "%d/%d" a g | None -> "unreachable")
                   views)))
  in
  go ()

(* --- traced run ------------------------------------------------------------ *)

(* The write path of the acknowledged puts, replayed in commit order
   through each layer's public functions: encode the command, wrap it
   in a one-entry AppendEntries envelope, persist the log as the pump
   does after each dirty cycle (the whole snapshot, fsynced), apply it
   to a state machine. *)
(* A write-path replayer over its own storage directory: each call
   replays the next put and returns its wall time and envelope bytes. *)
let write_replayer sp =
  let span name f = Spans.with_span sp name f in
  let dir = Proc.fresh_dir "storage-replay" in
  let state = Replica.State.create () in
  let log = ref [] and payloads = ref [] and seq = ref 0 in
  fun (a : acked) ->
    incr seq;
    let seq = !seq in
    let scenario =
      match Result.bind (Obs.Json.of_string a.scenario) Probcons.Scenario.of_json with
      | Ok s -> s
      | Error e -> failwith ("replay: " ^ e)
    in
    let op = Replica.Command.Put_scenario { name = a.name; scenario; nonce = a.nonce } in
    let t0 = now () in
    let env =
      Spans.with_span sp ~req:seq "request" (fun () ->
          let line = span "command.encode" (fun () -> Replica.Command.to_string op) in
          let entry = { Raft_sim.Raft_types.term = 1; index = seq; command = Raft_sim.Raft_types.Data seq } in
          let msg =
            Raft_sim.Raft_types.Append_entries
              {
                term = 1;
                leader_id = 0;
                prev_log_index = seq - 1;
                prev_log_term = (if seq = 1 then 0 else 1);
                entries = [ entry ];
                leader_commit = seq - 1;
              }
          in
          let env =
            span "transport.encode" (fun () ->
                Replica.Transport.envelope_to_line ~src:0 ~dst:1 msg ~payloads:[ (seq, line) ])
          in
          log := entry :: !log;
          payloads := (seq, line) :: !payloads;
          span "storage.save" (fun () ->
              Replica.Storage.save ~dir
                { Replica.Storage.term = 1; voted_for = Some 0; log = List.rev !log; payloads = List.rev !payloads });
          ignore (span "state.apply" (fun () -> Replica.State.apply state ~seq op ~id:(Replica.Command.id op)));
          env)
    in
    (now () -. t0, String.length env)

(* Mean AppendEntries envelope bytes of the whole replay. *)
let replay_write_path sp puts =
  let step = write_replayer sp in
  let bytes = List.fold_left (fun acc a -> acc + snd (step a)) 0 puts in
  float_of_int bytes /. float_of_int (max 1 (List.length puts))

(* Tracing overhead of the write-path replay over the first 200 puts,
   each replayed untraced and traced into two storage directories. *)
let write_trace_overhead puts =
  let first = Array.of_list (List.filteri (fun i _ -> i < 200) puts) in
  let off = write_replayer (Spans.create ~enabled:false)
  and on = write_replayer (Spans.create ~enabled:true) in
  Util.paired_overhead (Array.length first)
    ~untraced:(fun i -> fst (off first.(i)))
    ~traced:(fun i -> fst (on first.(i)))

(* The steady phase's figures from the replicas' own counters: stop the
   deployment gracefully (each replica writes its --metrics snapshot on
   the way out), read them, and restart every replica from its state
   directory. *)
let steady_counters ctx d =
  let commits =
    match find_leader d ~timeout:10. with
    | Some (l, _) -> (match status_of d l with Some j -> status_int j "commit_index" | None -> 0)
    | None -> 0
  in
  let leader_state = Option.map fst (find_leader d ~timeout:10.) in
  stop_all d;
  let snap_bytes =
    match leader_state with
    | Some l -> (
        let path = Replica.Storage.path ~dir:(Filename.concat d.dir (Printf.sprintf "state-%d" l)) in
        try float_of_int (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0.)
    | None -> 0.
  in
  let sum name =
    List.fold_left
      (fun acc i ->
        acc
        +. Wl_query.snapshot_value
             (Wl_query.read_snapshot (metrics_file d i (d.generation.(i) - 1)))
             ~family:"engine" ~name)
      0. (List.init d.n Fun.id)
  in
  let events = sum "events_executed" and msgs = sum "messages_sent" in
  for i = 0 to d.n - 1 do spawn ctx d i done;
  if find_leader d ~timeout:30. = None then failwith "no leader after the traced restart";
  (commits, events, msgs, snap_bytes)

(* --- the workload -------------------------------------------------------- *)

let replicated_rw (ctx : ctx) =
  let target = int_of_float (writes_per_second *. ctx.seconds) in
  (* The client and the three replicas each get a CPU of their own: a
     stall of the client's CPU does not hold up the replicas, and the
     replicas' CPU time is spent on one core whose speed the reference
     sampler measures (unpinned, ref_cpu_us_per_op spread 0.13 between
     runs instead of 0.06). *)
  let cpu = split_cpus ctx in
  (* Set-up: fresh deployments timed to their first acknowledged put;
     the last one carries the run. *)
  let rec setups k acc =
    let d, s, first = start ctx ~cpu in
    if k = 1 then (d, first, s :: acc)
    else begin
      stop_all d;
      setups (k - 1) (s :: acc)
    end
  in
  let rc = Refcore.start ?cpu ~dir:(Proc.fresh_dir "refcore") () in
  let d, first, setup_times = setups setup_reps [] in
  let setup = metric ~samples:setup_reps "setup_s" "s" (median (Array.of_list setup_times)) in
  (* CPU of the replicas over the steady phase only (the fault phase's
     elections and restarts vary from run to run), less what the idle
     deployment burns in the same time: pump ticks and heartbeats cost
     CPU per second, not per operation, and a run slowed by the host
     would otherwise charge more of them to each operation. *)
  let replicas_cpu () =
    Array.fold_left (fun acc p -> match p with Some pid -> acc +. proc_cpu pid | None -> acc) 0. d.pids
  in
  let idle0 = replicas_cpu () in
  Thread.delay idle_s;
  let idle_rate = (replicas_cpu () -. idle0) /. idle_s in
  let cpu0 = replicas_cpu () in
  let st = steady_phase ctx d ~target in
  let steady_cpu = replicas_cpu () -. cpu0 in
  let busy_cpu = Float.max 0. (steady_cpu -. (idle_rate *. st.seconds)) in
  let counters = if ctx.trace then Some (steady_counters ctx d) else None in
  let fault = fault_phase ctx d in
  let acked = (first :: st.acked) @ fault.f_acked in
  let rb_errors = read_back d acked in
  let agree = agreement d in
  stop_all d;
  let kernel = Refcore.stop rc in
  let ops = st.attempted + fault.f_attempted + List.length acked + 2 in
  let errors =
    List.filteri (fun i _ -> i < 10) (st.failures @ fault.f_failures @ rb_errors)
    @ (match agree with Ok _ -> [] | Error e -> [ e ])
  in
  let e2e_errors = ref [] in
  let e2e = [ setup; Refcore.cpu_metric ~kernel ~cpu_s:busy_cpu ~ops:st.attempted ] in
  let q2 = [ (0.5, "p50"); (0.99, "p99") ] in
  let reads = Array.append st.get_lat st.lin_lat in
  let extra =
    windowed ~t0:st.started ~t1:(st.started +. st.seconds) ~done_at:st.done_at st.all_lat
    @ [
        cpu_metric ~cpu_s:steady_cpu ~ops:st.attempted;
        metric "steady_s" "s" st.seconds;
        metric ~samples:st.attempted "idle_cpu_frac" "frac" idle_rate;
        Refcore.kernel_metric kernel;
      ]
    @ latency_metrics ~quantiles:tail_quantiles
      ~on_unsupported:(fun m -> e2e_errors := m :: !e2e_errors)
      st.all_lat
    @ latency_metrics ~prefix:"write_" ~quantiles:q2 ~on_unsupported:ignore st.put_lat
    @ latency_metrics ~prefix:"read_" ~quantiles:q2 ~on_unsupported:ignore reads
    @ latency_metrics ~prefix:"lin_read_" ~quantiles:[ (0.5, "p50") ] ~on_unsupported:ignore st.lin_lat
    @ [
        metric ~samples:(Array.length fault.failover_ms) "failover_ms" "ms" (median fault.failover_ms);
        metric ~samples:(List.length acked) "acked_writes" "count" (float_of_int (List.length acked));
      ]
  in
  let layers, spans =
    match counters with
    | None -> ([], None)
    | Some (commits, events, msgs, snap_bytes) ->
        let puts = first :: List.rev st.acked in
        let sp = Spans.create ~enabled:true in
        let env_bytes = replay_write_path sp puts in
        let saves = Spans.durations sp "storage.save" in
        let n_saves = Array.length saves in
        (* Median persist time over the 11 saves around a log length. *)
        let save_at len =
          let lo = max 0 (len - 6) and hi = min (n_saves - 1) (len + 4) in
          if hi < lo then 0. else 1000. *. median (Array.sub saves lo (hi - lo + 1))
        in
        let lengths = List.map (fun q -> max 1 (n_saves * q / 4)) [ 1; 2; 3; 4 ] in
        let save_ms = List.map save_at lengths in
        let l1 = List.nth lengths 0 and l4 = List.nth lengths 3 in
        let c = float_of_int (max 1 commits) in
        let statuses = match agree with Ok (_, st) -> List.filter_map Fun.id st | Error _ -> [] in
        (* Local baseline: one put's replayed encode + persist + apply,
           against the deployment's acknowledged-write median. A live
           single-replica deployment cannot serve as the baseline: its
           puts are never acknowledged within the commit timeout. *)
        let write_p50 = 1000. *. median st.put_lat in
        let local = 1000. *. median (Spans.durations sp "request") in
        ( List.mapi
            (fun k (len, ms) ->
              metric ~samples:len (Printf.sprintf "storage.save_ms_q%d" (k + 1)) "ms" ms)
            (List.combine lengths save_ms)
          @ [
              metric "storage.save_ms_per_kentry" "ms"
                (1000. *. (List.nth save_ms 3 -. List.nth save_ms 0) /. float_of_int (max 1 (l4 - l1)));
              metric "storage.snapshot_bytes" "bytes" snap_bytes;
              metric "storage.share" "frac" (Replay.layer_share sp "storage");
              Layers.span_metric sp "transport.encode_us" "transport.encode";
              metric ~samples:commits "transport.msgs_per_commit" "count" (msgs /. c);
              metric ~samples:commits "transport.bytes_per_commit" "bytes" (env_bytes *. msgs /. c);
              Layers.span_metric sp "command.encode_us" "command.encode";
              Layers.span_metric sp "state.apply_us" "state.apply";
              metric "replica.dedup_skips" "count"
                (float_of_int (List.fold_left (fun a j -> a + status_int j "dedup_skips") 0 statuses));
              metric "replica.commit_lag_max" "entries" (float_of_int st.lag_max);
              metric ~samples:(Array.length fault.catchup_ms) "replica.catchup_ms" "ms" (median fault.catchup_ms);
              metric "replica.elections" "count" (float_of_int fault.elections);
              metric "client.endpoint_switches" "count" (float_of_int (st.switches + fault.f_switches));
              metric ~samples:commits "engine.events_per_commit" "count" (events /. c);
              metric ~samples:n_saves "replica.local_write_ms" "ms" local;
              metric "quorum.wait_share" "frac" ((write_p50 -. local) /. write_p50);
              metric "obs.trace_overhead_frac" "frac" (write_trace_overhead puts);
            ],
          Some sp )
  in
  {
    e2e;
    extra;
    layers;
    attempted = ops;
    failed = List.length st.failures + List.length fault.f_failures + List.length rb_errors
             + (match agree with Ok _ -> 0 | Error _ -> 1);
    errors = errors @ List.rev !e2e_errors;
    config =
      (let c = Replica.Node.default_config ~id:0 ~n:replicas ~base_port:0 ~service_port:0 in
       [
         ("replica.n", string_of_int replicas);
         ("replica.workers", string_of_int c.Replica.Node.workers);
         ("replica.tick_s", Printf.sprintf "%g" c.Replica.Node.tick_seconds);
         ("replica.staleness_budget_s", Printf.sprintf "%g" c.Replica.Node.staleness_budget_seconds);
         ("rw.target_writes", string_of_int target);
         ("rw.kills", string_of_int kills);
         ("rw.cpus", cpus_config ctx cpu);
       ]);
    spans;
  }
