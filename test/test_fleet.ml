(* The fleet controller: telemetry stream determinism, the closed
   loop's recommendations, canonical-payload byte identity across the
   CLI renderer and both wire framings, and the DST system. *)

open Fleetctl

let with_watchdog ?(timeout = 60.) f =
  let outcome = ref None in
  let th =
    Thread.create (fun () -> outcome := Some (try Ok (f ()) with e -> Error e)) ()
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match !outcome with
    | Some (Ok ()) -> Thread.join th
    | Some (Error e) -> Thread.join th; raise e
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "test timed out after %gs" timeout
        else begin
          Thread.delay 0.02;
          wait ()
        end
  in
  wait ()

let temp_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "probcons-fleet-%d-%d.sock" (Unix.getpid ()) !counter)

(* The config the e2e and determinism tests share: a tight 7-of-9
   quorum under a 5-nines target fires both recommendation levers. *)
let tight_case () =
  let cfg = Controller.default_config ~seed:42 ~ticks:8 ~nodes:9 () in
  { cfg with Controller.quorum = 7; target_live = Prob.Nines.to_prob 5. }

(* --- Stream --------------------------------------------------------- *)

let test_stream_determinism () =
  let cfg = Stream.default_config ~seed:11 ~nodes:7 () in
  let run () =
    let s = Stream.create cfg in
    List.concat_map
      (fun _ ->
        List.map
          (fun { Stream.node; observation } ->
            ( node,
              observation.Faultmodel.Telemetry.failures,
              observation.Faultmodel.Telemetry.device_hours ))
          (Stream.tick s))
      [ (); (); (); (); () ]
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2
    (fun (n1, f1, h1) (n2, f2, h2) ->
      Alcotest.(check int) "node" n1 n2;
      Alcotest.(check int) "failures" f1 f2;
      Alcotest.(check (float 0.)) "device_hours" h1 h2)
    a b

let test_stream_drift_and_replace () =
  let cfg =
    { (Stream.default_config ~seed:3 ~nodes:4 ()) with Stream.drift_every = 1 }
  in
  let s = Stream.create cfg in
  let before = Array.init 4 (Stream.ground_truth_afr s) in
  ignore (Stream.tick s);
  let after = Array.init 4 (Stream.ground_truth_afr s) in
  let drifted =
    Array.exists Fun.id (Array.map2 (fun a b -> a <> b) before after)
  in
  Alcotest.(check bool) "one node drifted" true drifted;
  Stream.replace s 0 ~afr:0.02;
  Alcotest.(check (float 0.)) "replace resets truth" 0.02
    (Stream.ground_truth_afr s 0)

let test_stream_dynamic_determinism () =
  (* Dynamic mode replaces step drift with per-node Markov degradation;
     the whole schedule must still be a pure function of the seed. *)
  let cfg = Stream.default_config ~dynamic:true ~seed:11 ~nodes:7 () in
  let run () =
    let s = Stream.create cfg in
    let events =
      List.concat_map
        (fun _ ->
          List.map
            (fun { Stream.node; observation } ->
              ( node,
                observation.Faultmodel.Telemetry.failures,
                observation.Faultmodel.Telemetry.device_hours ))
            (Stream.tick s))
        [ (); (); (); (); () ]
    in
    (events, List.init 7 (Stream.ground_truth_degraded s))
  in
  let a, da = run () and b, db = run () in
  Alcotest.(check int) "same event count" (List.length a) (List.length b);
  List.iter2
    (fun (n1, f1, h1) (n2, f2, h2) ->
      Alcotest.(check int) "node" n1 n2;
      Alcotest.(check int) "failures" f1 f2;
      Alcotest.(check (float 0.)) "device_hours" h1 h2)
    a b;
  Alcotest.(check (list bool)) "same degradation states" da db

let test_stream_ground_truth_process () =
  let static = Stream.create (Stream.default_config ~seed:5 ~nodes:3 ()) in
  (match Stream.ground_truth_process static 0 with
  | Faultmodel.Failure_process.Curve _ -> ()
  | p ->
      Alcotest.failf "static stream truth must be a curve, got %s"
        (Format.asprintf "%a" Faultmodel.Failure_process.pp p));
  let dynamic =
    Stream.create (Stream.default_config ~dynamic:true ~seed:5 ~nodes:3 ())
  in
  match Stream.ground_truth_process dynamic 0 with
  | Faultmodel.Failure_process.Markov { fail_rate; recover_rate } ->
      Alcotest.(check bool) "positive rates" true
        (fail_rate > 0. && recover_rate > 0.)
  | p ->
      Alcotest.failf "dynamic stream truth must be markov, got %s"
        (Format.asprintf "%a" Faultmodel.Failure_process.pp p)

(* --- Controller ----------------------------------------------------- *)

let payload_bytes o = Obs.Json.to_string (Controller.payload o)

let test_controller_deterministic () =
  let cfg = tight_case () in
  let a = payload_bytes (Controller.run cfg)
  and b = payload_bytes (Controller.run cfg) in
  Alcotest.(check string) "payloads byte-identical" a b

(* Exact payload and ingest bytes of six runs, keyed by (seed, ticks,
   dynamic, nodes, quorum, target nines): a refit that moves one bit of
   any estimate shows here. Covers static and dynamic streams, 5 to 64
   nodes, 8 and 26 ticks, and both recommendation kinds (the first case
   resizes and swaps, the second only swaps). *)
let golden_payloads =
  [
    ( (42, 8, false, 9, 7, 5.),
      {|{"subsystem": "fleet", "nodes": 9, "seed": 42, "ticks": 8, "observations": 16, "failures_seen": 224, "device_hours": 34916468.322597407, "engine_updates": 18, "engine_refreshes": 0, "max_divergence": 1.1102230246251565e-16, "quorum": 5, "target_live": 0.99999000000000005, "p_live": 0.99999402872037668, "nines": 5.2239325911828818, "expected_failures": 0.34076581394846844, "recommendations": [{"tick": 1, "p_live": 0.99854770050061714, "action": "resize", "q_per": 5, "q_vc": 5, "predicted_live": 0.99999871565776133}, {"tick": 4, "p_live": 0.99998452491395884, "action": "swap", "node": 1, "estimate": 0.098107586913298087, "predicted_live": 0.99999393564663386}, {"tick": 8, "p_live": 0.99997096339731417, "action": "swap", "node": 5, "estimate": 0.2071210725930685, "predicted_live": 0.99999402872037668}]}|},
      {|{"subsystem": "fleet_ingest", "nodes": 9, "seed": 42, "ticks": 8, "observations": 16, "failures_seen": 224, "device_hours": 34916468.322597407, "engine_updates": 18, "engine_refreshes": 0, "max_divergence": 1.1102230246251565e-16, "p_live": 0.99999402872037668, "expected_failures": 0.34076581394846844}|} );
    ( (7, 26, false, 5, 3, 3.),
      {|{"subsystem": "fleet", "nodes": 5, "seed": 7, "ticks": 26, "observations": 26, "failures_seen": 426, "device_hours": 56489021.083108865, "engine_updates": 31, "engine_refreshes": 0, "max_divergence": 2.2204460492503131e-16, "quorum": 3, "target_live": 0.999, "p_live": 0.99977126460163601, "nines": 3.640666620157027, "expected_failures": 0.15668934689510047, "recommendations": [{"tick": 5, "p_live": 0.99811840096977633, "action": "swap", "node": 4, "estimate": 0.074687842877744395, "predicted_live": 0.99902090544865685}, {"tick": 14, "p_live": 0.9981672235226241, "action": "swap", "node": 3, "estimate": 0.13359083992616663, "predicted_live": 0.9994738479548545}, {"tick": 19, "p_live": 0.99837359441192375, "action": "swap", "node": 3, "estimate": 0.093826020040048447, "predicted_live": 0.99931721636485427}, {"tick": 22, "p_live": 0.99883765132511482, "action": "swap", "node": 1, "estimate": 0.18578143625212323, "predicted_live": 0.99978274656941801}, {"tick": 26, "p_live": 0.99850466250212455, "action": "swap", "node": 0, "estimate": 0.23782082746238223, "predicted_live": 0.99977126460163601}]}|},
      {|{"subsystem": "fleet_ingest", "nodes": 5, "seed": 7, "ticks": 26, "observations": 26, "failures_seen": 426, "device_hours": 56489021.083108865, "engine_updates": 31, "engine_refreshes": 0, "max_divergence": 2.2204460492503131e-16, "p_live": 0.99977126460163601, "expected_failures": 0.15668934689510047}|} );
    ( (3, 8, true, 9, 7, 5.),
      {|{"subsystem": "fleet", "dynamic": true, "nodes": 9, "seed": 3, "ticks": 8, "observations": 16, "failures_seen": 125, "device_hours": 35372319.133944117, "engine_updates": 16, "engine_refreshes": 0, "max_divergence": 2.2204460492503131e-16, "quorum": 5, "target_live": 0.99999000000000005, "p_live": 0.99999852081662566, "nines": 5.8299779831847633, "expected_failures": 0.26139235500959462, "recommendations": [{"tick": 1, "p_live": 0.99947263993075075, "action": "resize", "q_per": 5, "q_vc": 5, "predicted_live": 0.99999971261720388}]}|},
      {|{"subsystem": "fleet_ingest", "dynamic": true, "nodes": 9, "seed": 3, "ticks": 8, "observations": 16, "failures_seen": 125, "device_hours": 35372319.133944117, "engine_updates": 16, "engine_refreshes": 0, "max_divergence": 2.2204460492503131e-16, "p_live": 0.99999852081662566, "expected_failures": 0.26139235500959462}|} );
    ( (11, 26, true, 32, 17, 3.),
      {|{"subsystem": "fleet", "dynamic": true, "nodes": 32, "seed": 11, "ticks": 26, "observations": 208, "failures_seen": 1939, "device_hours": 458072833.60094523, "engine_updates": 208, "engine_refreshes": 1, "max_divergence": 7.2164496600635175e-16, "quorum": 17, "target_live": 0.999, "p_live": 1, "nines": null, "expected_failures": 1.1793732973587205, "recommendations": []}|},
      {|{"subsystem": "fleet_ingest", "dynamic": true, "nodes": 32, "seed": 11, "ticks": 26, "observations": 208, "failures_seen": 1939, "device_hours": 458072833.60094523, "engine_updates": 208, "engine_refreshes": 1, "max_divergence": 7.2164496600635175e-16, "p_live": 1, "expected_failures": 1.1793732973587205}|} );
    ( (5, 8, false, 64, 33, 3.),
      {|{"subsystem": "fleet", "nodes": 64, "seed": 5, "ticks": 8, "observations": 128, "failures_seen": 1305, "device_hours": 281661000.22111595, "engine_updates": 128, "engine_refreshes": 0, "max_divergence": 4.163336342344337e-16, "quorum": 33, "target_live": 0.999, "p_live": 0.99999999999999944, "nines": 15.255619765854984, "expected_failures": 2.5134119763600427, "recommendations": []}|},
      {|{"subsystem": "fleet_ingest", "nodes": 64, "seed": 5, "ticks": 8, "observations": 128, "failures_seen": 1305, "device_hours": 281661000.22111595, "engine_updates": 128, "engine_refreshes": 0, "max_divergence": 4.163336342344337e-16, "p_live": 0.99999999999999944, "expected_failures": 2.5134119763600427}|} );
    ( (9, 8, true, 64, 40, 4.),
      {|{"subsystem": "fleet", "dynamic": true, "nodes": 64, "seed": 9, "ticks": 8, "observations": 128, "failures_seen": 1055, "device_hours": 282634993.8123582, "engine_updates": 128, "engine_refreshes": 0, "max_divergence": 6.6613381477509392e-16, "quorum": 40, "target_live": 0.99990000000000001, "p_live": 0.999999999999999, "nines": 15.000347260751678, "expected_failures": 1.9097292688257412, "recommendations": []}|},
      {|{"subsystem": "fleet_ingest", "dynamic": true, "nodes": 64, "seed": 9, "ticks": 8, "observations": 128, "failures_seen": 1055, "device_hours": 282634993.8123582, "engine_updates": 128, "engine_refreshes": 0, "max_divergence": 6.6613381477509392e-16, "p_live": 0.999999999999999, "expected_failures": 1.9097292688257412}|} );
  ]

let test_controller_golden_payloads () =
  List.iter
    (fun ((seed, ticks, dynamic, nodes, quorum, nines), payload, ingest) ->
      let cfg = Controller.default_config ~seed ~ticks ~dynamic ~nodes () in
      let o =
        Controller.run
          { cfg with Controller.quorum; target_live = Prob.Nines.to_prob nines }
      in
      let name = Printf.sprintf "seed %d, %d nodes, %d ticks" seed nodes ticks in
      Alcotest.(check string) (name ^ " payload") payload (payload_bytes o);
      Alcotest.(check string) (name ^ " ingest") ingest
        (Obs.Json.to_string (Controller.ingest_payload o)))
    golden_payloads

let test_controller_recommends () =
  let o = Controller.run (tight_case ()) in
  let resizes, swaps =
    List.partition
      (fun r ->
        match r.Controller.action with
        | Controller.Resize _ -> true
        | Controller.Swap _ -> false)
      o.Controller.recommendations
  in
  Alcotest.(check bool) "at least one resize" true (resizes <> []);
  Alcotest.(check bool) "at least one swap" true (swaps <> []);
  (* Recommendations fire only below target, and a swap must predict
     an improvement over the live probability that triggered it. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "fired below target" true
        (r.Controller.p_live < (tight_case ()).Controller.target_live);
      match r.Controller.action with
      | Controller.Swap { predicted_live; _ } ->
          Alcotest.(check bool) "swap predicts improvement" true
            (predicted_live > r.Controller.p_live)
      | Controller.Resize _ -> ())
    o.Controller.recommendations

let test_controller_divergence_bounded () =
  let o = Controller.run (tight_case ()) in
  Alcotest.(check bool) "verified ticks stay within drift bound" true
    (o.Controller.max_divergence
    <= Prob.Incremental.default_drift_bound
       +. (16. *. 9. *. epsilon_float));
  Alcotest.(check bool) "verification actually ran" true
    ((tight_case ()).Controller.verify)

let test_controller_validates () =
  let cfg = tight_case () in
  Alcotest.check_raises "quorum out of range"
    (Invalid_argument "Controller.run: quorum must be in [1, nodes]")
    (fun () -> ignore (Controller.run { cfg with Controller.quorum = 10 }));
  Alcotest.check_raises "stream size mismatch"
    (Invalid_argument "Controller.run: stream fleet size mismatch")
    (fun () ->
      ignore
        (Controller.run
           {
             cfg with
             Controller.stream = Stream.default_config ~seed:42 ~nodes:5 ();
           }))

let contains ~affix s =
  let k = String.length affix and n = String.length s in
  let rec go i = i + k <= n && (String.sub s i k = affix || go (i + 1)) in
  go 0

let test_controller_dynamic_payload () =
  (* The legacy payload bytes are sacred: "dynamic" appears only when
     the mode is on. *)
  let static = payload_bytes (Controller.run (tight_case ())) in
  Alcotest.(check bool) "static payload has no dynamic key" false
    (contains ~affix:"dynamic" static);
  let dynamic_cfg =
    let cfg = Controller.default_config ~seed:42 ~ticks:8 ~dynamic:true ~nodes:9 () in
    { cfg with Controller.quorum = 7; target_live = Prob.Nines.to_prob 5. }
  in
  let o = Controller.run dynamic_cfg in
  let dynamic = payload_bytes o in
  Alcotest.(check bool) "dynamic payload flagged" true
    (contains ~affix:{|"dynamic": true|} dynamic);
  Alcotest.(check bool) "ingest payload flagged too" true
    (contains ~affix:{|"dynamic": true|}
       (Obs.Json.to_string (Controller.ingest_payload o)));
  (* And the dynamic run is itself deterministic. *)
  Alcotest.(check string) "dynamic run deterministic" dynamic
    (payload_bytes (Controller.run dynamic_cfg))

(* --- Wire parse/encode ---------------------------------------------- *)

let fleet_params nodes =
  {
    Service.Wire.nodes;
    ticks = 8;
    seed = 42;
    quorum = Some 7;
    target_nines = 5.;
    dynamic = false;
  }

let parse_ok body =
  match Service.Wire.parse_request body with
  | Ok r -> r
  | Error (_, code, msg) ->
      Alcotest.failf "parse failed: %s (%s)" (Service.Wire.code_string code) msg

let test_wire_roundtrip () =
  let q = Service.Wire.Fleet_recommend (fleet_params 9) in
  let r = parse_ok (Service.Wire.encode_request { Service.Wire.id = 5; query = q }) in
  Alcotest.(check int) "id" 5 r.Service.Wire.id;
  Alcotest.(check string) "canonical key survives the round-trip"
    (Service.Wire.canonical_key q)
    (Service.Wire.canonical_key r.Service.Wire.query);
  Alcotest.(check bool) "fleet queries are cacheable" true
    (Service.Wire.cacheable q)

let test_wire_normalizes () =
  (* Spelled-out defaults and the bare minimum must share a cache key;
     an explicit majority quorum normalizes away. *)
  let minimal =
    parse_ok {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9}}|}
  in
  let spelled =
    parse_ok
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "ticks": 26, "seed": 42, "quorum": 5, "target_nines": 3}}|}
  in
  Alcotest.(check string) "defaults normalize to one key"
    (Service.Wire.canonical_key minimal.Service.Wire.query)
    (Service.Wire.canonical_key spelled.Service.Wire.query)

let test_wire_bounds () =
  let reject params =
    match
      Service.Wire.parse_request
        (Printf.sprintf
           {|{"v": 3, "id": 0, "kind": "fleet_ingest", "params": %s}|} params)
    with
    | Error (_, Service.Wire.Bad_request, _) -> ()
    | Ok _ -> Alcotest.failf "params %s accepted" params
    | Error (_, code, msg) ->
        Alcotest.failf "params %s: wrong error %s (%s)" params
          (Service.Wire.code_string code) msg
  in
  reject {|{}|};
  reject {|{"nodes": 0}|};
  reject
    (Printf.sprintf {|{"nodes": %d}|} (Service.Wire.max_fleet_ctrl_nodes + 1));
  reject
    (Printf.sprintf {|{"nodes": 9, "ticks": %d}|}
       (Service.Wire.max_fleet_ticks + 1));
  reject {|{"nodes": 9, "quorum": 10}|};
  reject {|{"nodes": 9, "target_nines": 13}|}

let test_wire_dynamic () =
  (* Absent and false are the same wire state — one cache key, the
     legacy bytes — while true round-trips and keys separately. *)
  let off = Service.Wire.Fleet_recommend (fleet_params 9) in
  let on =
    Service.Wire.Fleet_recommend { (fleet_params 9) with Service.Wire.dynamic = true }
  in
  let parsed =
    parse_ok
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "ticks": 8, "quorum": 7, "target_nines": 5, "dynamic": true}}|}
  in
  Alcotest.(check string) "dynamic round-trips"
    (Service.Wire.canonical_key on)
    (Service.Wire.canonical_key parsed.Service.Wire.query);
  Alcotest.(check bool) "distinct cache keys" true
    (Service.Wire.canonical_key on <> Service.Wire.canonical_key off);
  Alcotest.(check bool) "legacy key has no dynamic field" false
    (contains ~affix:"dynamic" (Service.Wire.canonical_key off));
  let explicit_false =
    parse_ok
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "ticks": 8, "quorum": 7, "target_nines": 5, "dynamic": false}}|}
  in
  Alcotest.(check string) "explicit false normalizes to the legacy key"
    (Service.Wire.canonical_key off)
    (Service.Wire.canonical_key explicit_false.Service.Wire.query);
  match
    Service.Wire.parse_request
      {|{"v": 3, "id": 0, "kind": "fleet_recommend", "params": {"nodes": 9, "dynamic": 1}}|}
  with
  | Error (_, Service.Wire.Bad_request, _) -> ()
  | Ok _ -> Alcotest.fail "non-boolean dynamic accepted"
  | Error (_, code, msg) ->
      Alcotest.failf "wrong error %s (%s)" (Service.Wire.code_string code) msg

let test_router_dynamic_matches_controller () =
  let dynamic_cfg =
    let cfg = Controller.default_config ~seed:42 ~ticks:8 ~dynamic:true ~nodes:9 () in
    { cfg with Controller.quorum = 7; target_live = Prob.Nines.to_prob 5. }
  in
  let direct = payload_bytes (Controller.run dynamic_cfg) in
  let query =
    Service.Wire.Fleet_recommend { (fleet_params 9) with Service.Wire.dynamic = true }
  in
  match Service.Router.handle query with
  | Ok payload ->
      Alcotest.(check string) "router dynamic == controller renderer" direct
        (Obs.Json.to_string payload)
  | Error (code, msg) ->
      Alcotest.failf "router failed: %s (%s)" (Service.Wire.code_string code) msg

(* --- Router and e2e byte identity ------------------------------------ *)

let router_payload query =
  match Service.Router.handle query with
  | Ok payload -> Obs.Json.to_string payload
  | Error (code, msg) ->
      Alcotest.failf "router failed: %s (%s)" (Service.Wire.code_string code) msg

let test_router_matches_controller () =
  (* The wire handler and the CLI's --json path must render the same
     bytes from the same parameters — one canonical payload. *)
  let direct = payload_bytes (Controller.run (tight_case ())) in
  Alcotest.(check string) "router == controller renderer" direct
    (router_payload (Service.Wire.Fleet_recommend (fleet_params 9)));
  let ingest =
    Obs.Json.to_string (Controller.ingest_payload (Controller.run (tight_case ())))
  in
  Alcotest.(check string) "ingest payload matches too" ingest
    (router_payload (Service.Wire.Fleet_ingest (fleet_params 9)))

let test_e2e_both_framings () =
  with_watchdog (fun () ->
      let socket = temp_socket () in
      let server =
        Service.Server.start
          {
            Service.Server.default_config with
            Service.Server.socket_path = Some socket;
            workers = 2;
            queue_depth = 32;
            cache_capacity = 64;
          }
      in
      Fun.protect
        ~finally:(fun () -> Service.Server.stop server)
        (fun () ->
          let fetch wire query =
            let c =
              Service.Client.connect ~wire ~retry_for:5.
                (Service.Client.Unix_path socket)
            in
            Fun.protect
              ~finally:(fun () -> Service.Client.close c)
              (fun () ->
                match
                  Service.Client.call_line c ~id:3
                    (Service.Wire.encode_request ~v:wire
                       { Service.Wire.id = 3; query })
                with
                | Ok reply -> reply
                | Error (code, msg) ->
                    Alcotest.failf "wire/%d fleet call failed: %s (%s)" wire
                      (Service.Wire.code_string code) msg)
          in
          let q = Service.Wire.Fleet_recommend (fleet_params 9) in
          let r2 = fetch 2 q and r3 = fetch 3 q in
          Alcotest.(check string) "wire/2 body == wire/3 body" r3 r2;
          (* The served payload is byte-for-byte the CLI's --json
             output for the same parameters. *)
          let served = Service.Wire.encode_ok ~id:3 ~payload:(payload_bytes (Controller.run (tight_case ()))) in
          Alcotest.(check string) "served bytes == canonical payload" served r3))

(* --- DST system ------------------------------------------------------ *)

let test_dst_fleet_soak () =
  match
    Dst.Harness.soak (Dst.Fleet_case.system ()) ~seed:2025 ~episodes:8
  with
  | Dst.Harness.All_passed { episodes } ->
      Alcotest.(check int) "all episodes ran" 8 episodes
  | Dst.Harness.Found { failure; _ } ->
      Alcotest.failf "fleet invariant %S violated: %s"
        failure.Dst.Harness.invariant failure.Dst.Harness.detail

let test_dst_fleet_codec () =
  let sys = Dst.Fleet_case.system () in
  let rng = Prob.Rng.of_pair 99 0 in
  for _ = 1 to 20 do
    let case = sys.Dst.Harness.generate rng in
    match sys.Dst.Harness.decode (sys.Dst.Harness.encode case) with
    | Ok back ->
        if back <> case then Alcotest.fail "decode . encode is not the identity"
    | Error msg -> Alcotest.failf "generated case does not decode: %s" msg
  done

let test_dst_fleet_dynamic_codec () =
  let sys = Dst.Fleet_case.system () in
  let case =
    {
      Dst.Fleet_case.nodes = 9;
      ticks = 8;
      seed = 42;
      quorum = 7;
      target_nines = 5.;
      dynamic = true;
    }
  in
  let encoded = sys.Dst.Harness.encode case in
  Alcotest.(check bool) "dynamic encoded" true
    (contains ~affix:{|"dynamic": true|}
       (Obs.Json.to_string encoded.Dst.Repro.scenario));
  (match sys.Dst.Harness.decode encoded with
  | Ok back ->
      if back <> case then Alcotest.fail "dynamic decode . encode not identity"
  | Error msg -> Alcotest.failf "dynamic case does not decode: %s" msg);
  let static = { case with Dst.Fleet_case.dynamic = false } in
  Alcotest.(check bool) "static artifact keeps legacy bytes" false
    (contains ~affix:"dynamic"
       (Obs.Json.to_string (sys.Dst.Harness.encode static).Dst.Repro.scenario));
  (* Shrinking a failing dynamic case tries static first. *)
  match sys.Dst.Harness.candidates case with
  | first :: _ ->
      Alcotest.(check bool) "first shrink candidate disables dynamic" false
        first.Dst.Fleet_case.dynamic
  | [] -> Alcotest.fail "dynamic case must shrink"

let test_dst_fleet_registered () =
  Alcotest.(check bool) "fleet is a registry name" true
    (List.mem "fleet" Dst.Registry.names);
  match Dst.Registry.find "fleet" with
  | Ok (Dst.Registry.Packed sys) ->
      Alcotest.(check string) "system tag" "fleet" sys.Dst.Harness.name
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "stream determinism" `Quick test_stream_determinism;
    Alcotest.test_case "stream drift and replace" `Quick
      test_stream_drift_and_replace;
    Alcotest.test_case "stream dynamic determinism" `Quick
      test_stream_dynamic_determinism;
    Alcotest.test_case "stream ground-truth process" `Quick
      test_stream_ground_truth_process;
    Alcotest.test_case "controller dynamic payload" `Quick
      test_controller_dynamic_payload;
    Alcotest.test_case "wire dynamic flag" `Quick test_wire_dynamic;
    Alcotest.test_case "router dynamic matches controller" `Quick
      test_router_dynamic_matches_controller;
    Alcotest.test_case "dst fleet dynamic codec" `Quick
      test_dst_fleet_dynamic_codec;
    Alcotest.test_case "controller deterministic" `Quick
      test_controller_deterministic;
    Alcotest.test_case "controller recommends" `Quick test_controller_recommends;
    Alcotest.test_case "controller divergence bounded" `Quick
      test_controller_divergence_bounded;
    Alcotest.test_case "controller validates config" `Quick
      test_controller_validates;
    Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire normalizes defaults" `Quick test_wire_normalizes;
    Alcotest.test_case "wire bounds" `Quick test_wire_bounds;
    Alcotest.test_case "router matches controller" `Quick
      test_router_matches_controller;
    Alcotest.test_case "e2e both framings byte-identical" `Quick
      test_e2e_both_framings;
    Alcotest.test_case "dst fleet soak" `Quick test_dst_fleet_soak;
    Alcotest.test_case "dst fleet codec" `Quick test_dst_fleet_codec;
    Alcotest.test_case "dst fleet registered" `Quick test_dst_fleet_registered;
    Alcotest.test_case "controller golden payloads" `Quick
      test_controller_golden_payloads;
  ]
