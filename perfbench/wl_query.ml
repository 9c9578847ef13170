(* The two single-server workloads: analyze-miss (closed loop, every
   query a cache miss) and serve-zipf (open loop at fixed rates, Zipf
   keys over 16x the cache). *)

open Util
module W = Service.Wire
module C = Service.Client

let setup_reps = 15

let fast_backoff =
  { C.default_backoff with C.initial = 0.001; multiplier = 1.; max_sleep = 0.001; jitter = 0. }

(* Spawn [probcons serve] in its default configuration and time spawn →
   first reply (a ping). *)
let spawn_serve ?cpu ctx ~dir ~metrics =
  let port = Proc.free_ports 1 in
  let argv =
    (match cpu with Some c -> [ "taskset"; "-c"; string_of_int c ] | None -> [])
    @ [ ctx.bin; "serve"; "--port"; string_of_int port ]
    @ (match metrics with Some f -> [ "--metrics"; f ] | None -> [])
  in
  let t0 = now () in
  let pid =
    Proc.spawn ~name:"serve" ~log:(Filename.concat dir "serve.log") (Array.of_list argv)
  in
  let c = C.connect ~wire:3 ~retry_for:20. ~backoff:fast_backoff (C.Tcp port) in
  match C.call ~timeout:20. c ~id:0 W.Ping with
  | Ok _ ->
      let setup = now () -. t0 in
      C.close c;
      (pid, port, setup)
  | Error (_, msg) -> failwith ("serve did not answer its first ping: " ^ msg)

(* [setup_reps] fresh servers, each timed to its first reply; all but
   the last are stopped. Returns the last one and the median. *)
let fresh_server ?cpu ctx ~dir ~metrics =
  let rec go k acc =
    let pid, port, s = spawn_serve ?cpu ctx ~dir ~metrics:(if k = 1 then metrics else None) in
    if k = 1 then (pid, port, s :: acc)
    else begin
      Proc.stop pid;
      go (k - 1) (s :: acc)
    end
  in
  let pid, port, setups = go setup_reps [] in
  (pid, port, metric ~samples:setup_reps "setup_s" "s" (median (Array.of_list setups)))

(* Stop the measured server and return the CPU seconds it used (its
   rusage, collected when it is reaped). *)
let stop_server pid =
  let before = children_cpu () in
  Proc.stop pid;
  children_cpu () -. before

let stats_of port =
  let c = C.connect ~wire:3 ~retry_for:5. (C.Tcp port) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  match C.call ~timeout:10. c ~id:1 W.Stats with
  | Ok j -> j
  | Error (_, msg) -> failwith ("stats: " ^ msg)

let server_config stats =
  [
    ("serve.workers", Printf.sprintf "%.0f" (json_path_or stats [ "workers" ] ~default:nan));
    ( "serve.cache_capacity",
      Printf.sprintf "%.0f" (json_path_or stats [ "cache"; "capacity" ] ~default:nan) );
    ( "serve.queue_capacity",
      Printf.sprintf "%.0f" (json_path_or stats [ "queue"; "capacity" ] ~default:nan) );
  ]

(* Counters the server exposes through [stats], per request served. *)
let server_layer_metrics stats =
  let g path = json_path_or stats path ~default:0. in
  let total = Float.max 1. (g [ "requests"; "total" ]) in
  let hits = g [ "cache"; "hits" ] and misses = g [ "cache"; "misses" ] in
  [
    metric ~samples:(int_of_float (hits +. misses)) "cache.hit_ratio" "frac"
      (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    metric "cache.evictions_per_req" "1/req" (g [ "cache"; "evictions" ] /. total);
    metric "server.overloaded_frac" "frac" (g [ "requests"; "overloaded" ] /. total);
    metric "server.deadline_frac" "frac" (g [ "requests"; "deadline_exceeded" ] /. total);
    metric "server.loop_iters_per_req" "1/req" (g [ "reactor"; "loop_iterations" ] /. total);
    metric "server.write_stalls" "count" (g [ "reactor"; "write_backpressure_stalls" ]);
  ]

(* Sum of a counter (or histogram sum) in a --metrics jsonl snapshot. *)
let snapshot_value snap ~family ~name =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      if s.family = family && s.name = name then
        acc
        +.
        match s.value with
        | Obs.Metrics.Counter v | Obs.Metrics.Gauge v -> float_of_int v
        | Obs.Metrics.Histogram h -> h.Obs.Metrics.sum
      else acc)
    0. snap

let read_snapshot path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      match Obs.Metrics.of_jsonl text with Ok s -> s | Error _ -> [])
  | exception Sys_error _ -> []

(* Lanes an enumeration used, from the "/Nd" suffix of a payload's
   engine tag (1 when there is none). *)
let lanes_of_reply body =
  match find_after body "\"engine\": \"" with
  | None -> None
  | Some start -> (
      let stop = String.index_from body start '"' in
      let tag = String.sub body start (stop - start) in
      match String.rindex_opt tag '/' with
      | Some k when String.length tag > k + 2 && tag.[String.length tag - 1] = 'd' ->
          int_of_string_opt (String.sub tag (k + 1) (String.length tag - k - 2))
      | _ -> if String.length tag >= 11 && String.sub tag 0 11 = "enumeration" then Some 1 else None)

let spans_for ctx = Spans.create ~enabled:ctx.trace

(* --- analyze-miss ------------------------------------------------------ *)

let min_ops = 1000

let analyze_miss ctx =
  let dir = Proc.fresh_dir "analyze-miss" in
  let rc = Refcore.start ~dir () in
  let metrics_file = Filename.concat dir "serve-metrics.jsonl" in
  let pid, port, setup =
    fresh_server ctx ~dir ~metrics:(if ctx.trace then Some metrics_file else None)
  in
  let c = C.connect ~wire:3 ~retry_for:5. (C.Tcp port) in
  let body i = W.encode_request { W.id = i; query = Corpus.analyze_query ~seed:ctx.seed i } in
  (* Warm-up: three queries from a disjoint stream, so lazy set-up in
     the server (domain pool, first allocations) is not timed. *)
  for i = 0 to 2 do
    let b =
      W.encode_request
        { W.id = i; query = Corpus.analyze_query ~seed:(ctx.seed lxor 0x3c3c3c) i }
    in
    ignore (C.call_line ~timeout:60. c ~id:i b)
  done;
  let lat = Fvec.create () and done_at = Fvec.create () in
  let answered = ref [] (* (id, request body, reply body) *) and failed = ref 0 in
  let errors = ref [] in
  let t_start = now () in
  let cap = t_start +. (4. *. ctx.seconds) in
  let i = ref 0 in
  while
    let t = now () in
    t < cap && (t -. t_start < ctx.seconds || !i < min_ops)
  do
    let b = body !i in
    let t0 = now () in
    (match C.call_line ~timeout:60. c ~id:!i b with
    | Ok reply ->
        let t1 = now () in
        Fvec.push lat (t1 -. t0);
        Fvec.push done_at t1;
        answered := (!i, b, reply) :: !answered
    | Error (code, msg) ->
        incr failed;
        if List.length !errors < 5 then
          errors :=
            Printf.sprintf "analyze-miss request %d failed: %s %s" !i (W.code_string code) msg
            :: !errors);
    incr i
  done;
  let elapsed = now () -. t_start in
  C.close c;
  let stats = stats_of port in
  let server_cpu = stop_server pid in
  let kernel = Refcore.stop rc in
  let answered = Array.of_list (List.rev !answered) in
  let bodies = Array.map (fun (_, b, _) -> b) answered
  and replies = Array.map (fun (_, _, r) -> r) answered in
  (* Correctness: every reply against the in-process replay. *)
  let sp = spans_for ctx in
  let cache = Service.Cache.create ~capacity:1024 () in
  let enum = ref [] and lanes = ref 1 in
  (* Untraced runs replay the requests on every core (the server is
     gone by now) with a disabled recorder, which no domain writes to;
     the traced replay stays on one domain, because its spans are not
     shared across domains. *)
  let rendered =
    if ctx.trace then [||]
    else
      let off = Spans.create ~enabled:false in
      Parallel.Pool.map ~domains:(Domain.recommended_domain_count ()) (Array.length bodies)
        (fun k -> Replay.body_of_frame (Replay.pipeline off ~req:k bodies.(k)))
  in
  Array.iteri
    (fun k (id, b, reply) ->
      let expected =
        if ctx.trace then begin
          let r = Replay.pipeline sp ~cache ~req:id b in
          (match Corpus.analyze_query ~seed:ctx.seed id with
          | W.Analyze { scenario } when Probcons.Scenario.horizon scenario = None ->
              let n = Probcons.Scenario.size scenario in
              enum := n :: !enum
          | _ -> ());
          Replay.body_of_frame r
        end
        else rendered.(k)
      in
      (match lanes_of_reply reply with Some l -> lanes := max !lanes l | None -> ());
      if not (String.starts_with ~prefix:(W.ok_prefix ~id) reply) then begin
        incr failed;
        if List.length !errors < 5 then
          errors := Printf.sprintf "analyze-miss request %d was answered with an error: %s" id reply :: !errors
      end
      else if expected <> reply then begin
        incr failed;
        log_mismatch (Printf.sprintf "analyze-miss reply %d" id) ~expected ~got:reply;
        if List.length !errors < 5 then
          errors := Printf.sprintf "analyze-miss reply %d differs from the in-process rendering" id :: !errors
      end)
    answered;
  let lat = Fvec.to_array lat in
  let e2e = [ setup; Refcore.cpu_metric ~kernel ~cpu_s:server_cpu ~ops:(!i + 3) ] in
  let extra =
    windowed ~t0:t_start ~t1:(t_start +. elapsed) ~done_at:(Fvec.to_array done_at) lat
    @ latency_metrics ~quantiles:tail_quantiles ~on_unsupported:(fun m -> errors := m :: !errors) lat
    @ [ cpu_metric ~cpu_s:server_cpu ~ops:(!i + 3); Refcore.kernel_metric kernel ]
  in
  if json_path_or stats [ "cache"; "hits" ] ~default:0. > 0. then errors := "analyze-miss: a distinct query hit the cache" :: !errors;
  let layers =
    if not ctx.trace then []
    else begin
      let snap = read_snapshot metrics_file in
      let runs_configs = snapshot_value snap ~family:"analysis" ~name:"configs_evaluated" in
      let analysis_s = Replay.layer_seconds sp "analysis" in
      let enum_t = Spans.durations sp "analysis.run" in
      (* ns per configuration over the enumeration queries: analysis
         time of stake/committee queries over their 2^n configurations. *)
      let enum_configs =
        List.fold_left (fun acc n -> acc +. Float.pow 2. (float_of_int n)) 0. !enum
      in
      let enum_secs = Array.fold_left ( +. ) 0. enum_t in
      let fleet_ticks, horizon_rounds =
        Array.fold_left
          (fun (ft, hr) b ->
            match W.parse_request b with
            | Ok { W.query = W.Fleet_recommend f | W.Fleet_ingest f; _ } -> (ft + f.W.ticks, hr)
            | Ok { W.query = W.Analyze { scenario }; _ } -> (
                match Probcons.Scenario.rounds scenario with
                | Some r when Probcons.Scenario.horizon scenario <> None -> (ft, hr + r)
                | _ -> (ft, hr))
            | _ -> (ft, hr))
          (0, 0) bodies
      in
      let sum name = Array.fold_left ( +. ) 0. (Spans.durations sp name) in
      [
        metric "analysis.enum_ns_per_config" "ns"
          (if enum_configs > 0. then 1e9 *. enum_secs /. enum_configs else 0.);
        metric ~samples:(List.length !enum) "analysis.configs_per_query" "count"
          (runs_configs /. float_of_int (max 1 (Array.length bodies)));
        metric "analysis.share" "frac" (analysis_s /. server_cpu);
        metric "analysis.horizon_round_us" "us"
          (if horizon_rounds > 0 then 1e6 *. sum "analysis.horizon" /. float_of_int horizon_rounds else 0.);
        metric "parallel.lanes_used" "count" (float_of_int !lanes);
        metric "parallel.lane_busy_frac" "frac" (analysis_s /. (float_of_int !lanes *. elapsed));
        metric "fleet.tick_ms" "ms"
          (if fleet_ticks > 0 then 1e3 *. sum "fleet.run" /. float_of_int fleet_ticks else 0.);
        metric "router.fleet_ms" "ms"
          (let d = Spans.durations sp "fleet.run" and r = Spans.durations sp "fleet.render" in
           if Array.length d = 0 then 0. else 1e3 *. (median d +. median r));
        metric "prob.incremental_update_us" "us" (Layers.incremental_update_us ~seed:ctx.seed);
        metric "obs.trace_overhead_frac" "frac" (Replay.trace_overhead bodies ~k:100);
      ]
      @ server_layer_metrics stats
      @ Layers.wire_metrics sp ~bodies ~replies
    end
  in
  {
    e2e;
    extra;
    layers;
    attempted = !i;
    failed = !failed;
    errors = List.rev !errors;
    config = server_config stats @ [ ("serve.cpu_s", Printf.sprintf "%.3f" server_cpu) ];
    spans = (if ctx.trace then Some sp else None);
  }

(* --- serve-zipf --------------------------------------------------------

   Independent users: requests are sent on a fixed schedule whatever the
   replies do (open loop), from one busy-polling thread over two
   pipelined wire/3 connections, and each is timed from when it was
   due. After an unrecorded warm-up that fills the cache, the measured
   window runs at [zipf_rate]; its latency percentiles are taken per
   half-second window (1000 requests, enough for a p99) and reported as
   the median over windows, so one scheduling stall on a shared host
   moves one window, not the run. The offered rate fixes that window's
   throughput, so the server's own throughput is measured next, with
   [sat_depth] requests kept in flight until [sat_requests] are
   answered (the same key stream and warm cache). A short ladder of
   rates then finds [slo_rps]. The bounded figure is the server's CPU
   per request over all of it: every phase has a fixed request count,
   so the mix of cheap saturated and dearer open-loop requests is the
   same whatever the host's speed. *)

let zipf_rate = 2000.
let zipf_warmup_s = 1.
let zipf_window_s = 0.5
(* The top rung stays well below the saturated rate, where the
   open-loop window rather than the schedule would pace the requests. *)
let ladder = [| 1000.; 2000.; 4000.; 8000. |]
let ladder_rung_s = 1.

(* The open-loop phases keep at most this many requests outstanding:
   below the server's 64-deep work queue, so a host stall that holds the
   server up delays the requests due meanwhile (their latency still
   counts from the due time) instead of filling the queue, which would
   refuse them as overloaded. *)
let open_window = 48

(* Saturating phase: requests in flight (below the work queue, so none
   is refused), requests sent, throughput window, and the longest it
   may take. *)
let sat_depth = 32
let sat_requests = 60_000
let sat_window_s = 0.25
let sat_cap_s = 60.

(* The latency limit behind [slo_rps]: a rung meets it when its p99 is
   at most this and its backlog at the end of the rung (requests due by
   then and not yet answered) is below [backlog_limit_s] worth of
   requests. *)
let slo_p99_ms = 5.
let backlog_limit_s = 0.02

(* Phase of a request: warm-up, the measured window, the saturating
   phase, or a ladder rung. *)
let warmup = -1
let main_phase = 0
let sat_phase = 1
let rung_phase r = r + 2

type zipf_run = {
  bodies : string array;
  due : float array;
  sent : float array;
  recv : float array;
  replies : string array;
  phase : int array;
  count : int;
  backlog : int array;  (** Requests due and unanswered at each phase's end. *)
  main_start : float;
  main_s : float;
  sat_counts : int array;  (** Replies received in each saturating window. *)
}

let drive_zipf ctx port =
  let main_s = ctx.seconds in
  let open_phases =
    [ (warmup, zipf_rate, zipf_warmup_s); (main_phase, zipf_rate, main_s) ]
  and rungs = List.mapi (fun r rate -> (rung_phase r, rate, ladder_rung_s)) (Array.to_list ladder) in
  let cap =
    List.fold_left
      (fun acc (_, rate, d) -> acc + int_of_float (Float.ceil (rate *. d)))
      (16 + sat_requests) (open_phases @ rungs)
  in
  let bodies = Array.make cap "" in
  let due = Array.make cap 0. and sent = Array.make cap 0. and recv = Array.make cap nan in
  let replies = Array.make cap "" and phase = Array.make cap warmup in
  let backlog = Array.make (rung_phase (Array.length ladder) + 1) 0 in
  let phase_end = Array.make (Array.length backlog) 0. in
  let sat_windows = int_of_float (sat_cap_s /. sat_window_s) in
  let sat_counts = Array.make sat_windows 0 in
  let sat_start = ref infinity in
  let conns = [| Rawconn.connect port; Rawconn.connect port |] in
  let z = Corpus.zipf ~seed:ctx.seed in
  (* Each key's query, built once: the generator shares the host's
     cores with the server, so its own work is kept small. *)
  let queries = Array.make Corpus.zipf_keys None in
  let next = ref 0 and received = ref 0 in
  let on_reply payload =
    match Rawconn.reply_id payload with
    | Some id when id >= 0 && id < !next && Float.is_nan recv.(id) ->
        let t = now () in
        recv.(id) <- t;
        replies.(id) <- payload;
        incr received;
        if phase.(id) = sat_phase then begin
          let w = int_of_float ((t -. !sat_start) /. sat_window_s) in
          if w >= 0 && w < sat_windows then sat_counts.(w) <- sat_counts.(w) + 1
        end
    | _ -> ()
  in
  let poll timeout =
    let fds = Array.to_list (Array.map (fun c -> c.Rawconn.fd) conns) in
    let wfds =
      List.filter_map
        (fun c -> if Rawconn.pending c then Some c.Rawconn.fd else None)
        (Array.to_list conns)
    in
    match Unix.select fds wfds [] (Float.max 0. timeout) with
    | r, w, _ ->
        Array.iter
          (fun c ->
            if List.mem c.Rawconn.fd w then Rawconn.flush c;
            if List.mem c.Rawconn.fd r && not (Rawconn.drain c ~on_reply) then
              failwith "serve-zipf: the server closed a connection")
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let send ph ~due_at ~at =
    let id = !next in
    let k = Corpus.zipf_next z in
    let query =
      match queries.(k) with
      | Some q -> q
      | None ->
          let q = Corpus.zipf_query ~seed:ctx.seed k in
          queries.(k) <- Some q;
          q
    in
    let b = W.encode_request { W.id; query } in
    bodies.(id) <- b;
    due.(id) <- due_at;
    sent.(id) <- at;
    phase.(id) <- ph;
    Rawconn.enqueue conns.(id land 1) b;
    incr next
  in
  let main_start = ref 0. in
  let open_loop (ph, rate, dur) =
    let t_phase = now () in
    if ph = main_phase then main_start := t_phase;
    phase_end.(ph + 1) <- t_phase +. dur;
    let n = int_of_float (Float.ceil (rate *. dur)) in
    let j = ref 0 in
    while !j < n do
      let t = now () in
      while !j < n && t_phase +. (float_of_int !j /. rate) <= t && !next - !received < open_window do
        send ph ~due_at:(t_phase +. (float_of_int !j /. rate)) ~at:t;
        incr j
      done;
      Array.iter Rawconn.flush conns;
      (* Busy-poll rather than sleep until the next due time: a
         sleeping generator on a shared VM adds its own wake-up delay
         (often milliseconds under CPU steal) to every reply it
         times. *)
      poll 0.
    done;
    (* Let the phase's last due time pass. *)
    poll (t_phase +. dur -. now ())
  in
  let drain_all () =
    let deadline = now () +. 10. in
    while !received < !next && now () < deadline do
      Array.iter Rawconn.flush conns;
      poll 0.01
    done
  in
  List.iter open_loop open_phases;
  drain_all ();
  (* Saturating phase: a new request for each reply, and the generator
     blocks in [select] between replies so the server keeps the cores. *)
  sat_start := now ();
  let sat_deadline = !sat_start +. sat_cap_s and sat_first = !next in
  while now () < sat_deadline && !next - sat_first < sat_requests do
    while !next - !received < sat_depth && !next - sat_first < sat_requests do
      let t = now () in
      send sat_phase ~due_at:t ~at:t
    done;
    Array.iter Rawconn.flush conns;
    poll 0.005
  done;
  if !next - sat_first < sat_requests then
    failwith "serve-zipf: the saturating phase did not finish within its time cap";
  drain_all ();
  (* Only the windows the phase filled. *)
  let sat_full = max 1 (int_of_float ((now () -. !sat_start) /. sat_window_s)) in
  List.iter open_loop rungs;
  drain_all ();
  Array.iter Rawconn.close conns;
  let n = !next in
  for id = 0 to n - 1 do
    let k = phase.(id) + 1 in
    if due.(id) <= phase_end.(k) && not (recv.(id) <= phase_end.(k)) then
      backlog.(k) <- backlog.(k) + 1
  done;
  {
    bodies = Array.sub bodies 0 n;
    due = Array.sub due 0 n;
    sent = Array.sub sent 0 n;
    recv = Array.sub recv 0 n;
    replies = Array.sub replies 0 n;
    phase = Array.sub phase 0 n;
    count = n;
    backlog;
    main_start = !main_start;
    main_s;
    sat_counts = Array.sub sat_counts 0 (min sat_full sat_windows);
  }

let serve_zipf ctx =
  let dir = Proc.fresh_dir "serve-zipf" in
  (* The generator and the server each get a CPU of their own, so the
     server's throughput does not depend on how the host schedules
     three busy threads over two cores. *)
  let cpu = split_cpus ctx in
  let rc = Refcore.start ?cpu ~dir () in
  let pid, port, setup = fresh_server ?cpu ctx ~dir ~metrics:None in
  let run = drive_zipf ctx port in
  let stats = stats_of port in
  let server_cpu = stop_server pid in
  let kernel = Refcore.stop rc in
  let errors = ref [] and failed = ref 0 in
  let fail msg =
    incr failed;
    if List.length !errors < 5 then errors := msg :: !errors
  in
  (* Correctness: every reply against the in-process replay of its
     request. The replay's cache memoizes each key's payload: untraced
     it holds the whole key space, traced it has the server's capacity
     so the replayed cache layer sees the server's hits and misses. No
     phase keeps more requests outstanding than the server queues, so a
     refusal ("overloaded") is a failure like any other wrong reply. *)
  let sp = spans_for ctx in
  let cache =
    Service.Cache.create ~capacity:(if ctx.trace then 1024 else 2 * Corpus.zipf_keys) ()
  in
  for id = 0 to run.count - 1 do
    if Float.is_nan run.recv.(id) then fail (Printf.sprintf "serve-zipf request %d got no reply" id)
    else begin
      let want = Replay.body_of_frame (Replay.pipeline sp ~cache ~req:id run.bodies.(id)) in
      if want <> run.replies.(id) then begin
        log_mismatch (Printf.sprintf "serve-zipf reply %d" id) ~expected:want ~got:run.replies.(id);
        fail (Printf.sprintf "serve-zipf reply %d differs from the in-process rendering" id)
      end
      else if not (String.starts_with ~prefix:(W.ok_prefix ~id) want) then
        fail (Printf.sprintf "serve-zipf request %d was answered with an error" id)
    end
  done;
  let ids ph =
    List.filter
      (fun id -> run.phase.(id) = ph && not (Float.is_nan run.recv.(id)))
      (List.init run.count Fun.id)
  in
  let lat_of ids = Array.of_list (List.map (fun id -> run.recv.(id) -. run.due.(id)) ids) in
  let main = ids main_phase in
  (* Per-window percentiles of the measured window, then their median. *)
  let windows = max 1 (int_of_float (Float.round (run.main_s /. zipf_window_s))) in
  let by_window = Array.make windows [] in
  List.iter
    (fun id ->
      let w = int_of_float ((run.due.(id) -. run.main_start) /. zipf_window_s) in
      if w >= 0 && w < windows then by_window.(w) <- id :: by_window.(w))
    main;
  let window_metric q label =
    let per =
      Array.map
        (fun ids ->
          let l = sorted (lat_of ids) in
          if not (percentile_supported l q) then
            errors := Printf.sprintf "a window of %d samples cannot support a %s" (Array.length l) label :: !errors;
          1000. *. quantile_sorted l q)
        by_window
    in
    metric ~samples:(List.length main) (label ^ "_ms") "ms" (median per)
  in
  let e2e = [ setup; Refcore.cpu_metric ~kernel ~cpu_s:server_cpu ~ops:run.count ] in
  (* Per-rung latency and the highest rung meeting the limit. *)
  let slo = ref 0. and rung_metrics = ref [] and meeting = ref true in
  Array.iteri
    (fun r rate ->
      let ph = rung_phase r in
      let l = sorted (lat_of (ids ph)) in
      let p99 = 1000. *. quantile_sorted l 0.99 in
      let ok =
        percentile_supported l 0.99 && p99 <= slo_p99_ms
        && float_of_int run.backlog.(ph + 1) <= Float.max 8. (rate *. backlog_limit_s)
      in
      meeting := !meeting && ok;
      if !meeting then slo := rate;
      rung_metrics :=
        metric ~samples:(Array.length l) (Printf.sprintf "ladder_%.0f.backlog" rate) "count"
          (float_of_int run.backlog.(ph + 1))
        :: metric ~samples:(Array.length l) (Printf.sprintf "ladder_%.0f.p99_ms" rate) "ms" p99
        :: !rung_metrics)
    ladder;
  let late = sorted (Array.of_list (List.map (fun id -> run.sent.(id) -. run.due.(id)) main)) in
  let extra =
    (* Completions per second while saturated: the median over the
       saturating phase's windows. *)
    metric ~samples:(Array.fold_left ( + ) 0 run.sat_counts) "ops_per_s" "1/s"
      (median (Array.map float_of_int run.sat_counts) /. sat_window_s)
    :: window_metric 0.5 "p50"
    :: cpu_metric ~cpu_s:server_cpu ~ops:run.count
    :: Refcore.kernel_metric kernel
    :: window_metric 0.9 "p90"
    :: window_metric 0.99 "p99"
    :: metric ~samples:(Array.length ladder) "slo_rps" "1/s" !slo
    :: metric ~samples:windows "windows" "count" (float_of_int windows)
    :: List.rev !rung_metrics
  in
  let layers =
    if not ctx.trace then []
    else
      server_layer_metrics stats
      @ Layers.wire_metrics sp ~bodies:run.bodies ~replies:run.replies
      @ [
          metric "analysis.share" "frac" (Replay.layer_seconds sp "analysis" /. server_cpu);
          metric ~samples:(Array.length late) "loadgen.late_p99_ms" "ms"
            (1000. *. quantile_sorted late 0.99);
          metric "obs.trace_overhead_frac" "frac" (Replay.trace_overhead run.bodies ~k:2000);
        ]
  in
  {
    e2e;
    extra;
    layers;
    attempted = run.count;
    failed = !failed;
    errors = List.rev !errors;
    config =
      server_config stats
      @ [
          ("serve.cpu_s", Printf.sprintf "%.3f" server_cpu);
          ("zipf.keys", string_of_int Corpus.zipf_keys);
          ("zipf.rate", Printf.sprintf "%.0f" zipf_rate);
          ("zipf.sat_depth", string_of_int sat_depth);
          ("zipf.sat_requests", string_of_int sat_requests);
          ("zipf.open_window", string_of_int open_window);
          ("zipf.cpus", cpus_config ctx cpu);
          ("zipf.ladder", String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.0f") ladder)));
          ("zipf.slo_p99_ms", Printf.sprintf "%g" slo_p99_ms);
        ];
    spans = (if ctx.trace then Some sp else None);
  }
