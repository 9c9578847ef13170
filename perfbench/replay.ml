(* In-process replays of a workload's generated inputs through each
   layer's public functions — the reference the served bytes are
   checked against, and (with an enabled recorder) the source of the
   per-layer spans. *)

module W = Service.Wire
module S = Probcons.Scenario
module R = Probcons.Registry

let render_error ~id (code, msg) = W.encode_error ~id:(Some id) code msg

let guard f =
  match f () with
  | Ok v -> Ok v
  | Error msg -> Error (W.Bad_request, msg)
  | exception e -> Error (W.Internal, Printexc.to_string e)

(* Count-DP queries' analysis time and whole router compute time
   (validate + analysis + render), seconds; recorded only with an
   enabled recorder. *)
let dp_analysis = Util.Fvec.create ()
let dp_router = Util.Fvec.create ()

(* The router's compute step, split at the layer boundaries it crosses:
   registry validation, the analysis engine, payload rendering. Byte
   for byte what [Router.handle] produces (checked against the served
   replies). *)
let compute sp query =
  let span name f = Spans.with_span sp name f in
  match query with
  | W.Analyze { scenario } -> (
      match span "registry.validate" (fun () -> R.validate scenario) with
      | Error msg -> Error (W.Bad_request, msg)
      | Ok () -> (
          let n = S.size scenario in
          match S.horizon scenario with
          | None ->
              let t0 = Util.now () in
              guard (fun () ->
                  let analyzed = span "analysis.run" (fun () -> R.analyze scenario) in
                  let t1 = Util.now () in
                  Result.map
                    (fun r ->
                      let payload =
                        span "registry.render" (fun () ->
                            Obs.Json.to_string (R.payload ~n r))
                      in
                      if sp.Spans.enabled && r.Probcons.Analysis.engine = "count-dp" then begin
                        Util.Fvec.push dp_analysis (t1 -. t0);
                        Util.Fvec.push dp_router (Util.now () -. t0)
                      end;
                      payload)
                    analyzed)
          | Some horizon ->
              let rounds = Option.value (S.rounds scenario) ~default:S.default_rounds in
              guard (fun () ->
                  Result.map
                    (fun points ->
                      span "registry.render" (fun () ->
                          Obs.Json.to_string
                            (R.horizon_payload ~protocol:(S.protocol scenario) ~n
                               ~horizon ~rounds points)))
                    (span "analysis.horizon" (fun () -> R.analyze_horizon scenario)))))
  | W.Fleet_recommend f | W.Fleet_ingest f ->
      guard (fun () ->
          let cfg =
            Fleetctl.Controller.default_config ~seed:f.W.seed ~ticks:f.W.ticks
              ~dynamic:f.W.dynamic ~nodes:f.W.nodes ()
          in
          let cfg =
            {
              cfg with
              Fleetctl.Controller.quorum =
                Option.value f.W.quorum ~default:cfg.Fleetctl.Controller.quorum;
              target_live = Prob.Nines.to_prob f.W.target_nines;
            }
          in
          let outcome = span "fleet.run" (fun () -> Fleetctl.Controller.run cfg) in
          Ok
            (span "fleet.render" (fun () ->
                 Obs.Json.to_string
                   (match query with
                   | W.Fleet_ingest _ -> Fleetctl.Controller.ingest_payload outcome
                   | _ -> Fleetctl.Controller.payload outcome))))
  | q ->
      (* Closed-form and committee-search kinds: the router calls the
         model library directly. *)
      let name =
        match q with
        | W.Markov _ -> "markov.solve"
        | W.Availability _ -> "quorum.solve"
        | _ -> "probnative.solve"
      in
      Result.map Obs.Json.to_string (span name (fun () -> Service.Router.handle q))

(* One request through parse → key → cache → router → render, as the
   server runs it for a wire/3 connection. [cache] = [None] skips the
   cache layer (every request computes). *)
let pipeline sp ?cache ~req body =
  let span name f = Spans.with_span sp name f in
  Spans.with_span sp ~req "request" (fun () ->
      match span "wire.parse" (fun () -> W.parse_request body) with
      | Error (id, code, msg) -> Service.Frame.encode (W.encode_error ~id code msg)
      | Ok { W.id; query } ->
          let key = span "wire.key" (fun () -> W.canonical_key query) in
          let hit =
            match cache with
            | None -> None
            | Some c -> span "cache.find" (fun () -> Service.Cache.find c key)
          in
          let payload =
            match hit with
            | Some e -> Ok (Service.Cache.payload e)
            | None ->
                let r = span "router.handle" (fun () -> compute sp query) in
                (match (r, cache) with
                | Ok p, Some c -> span "cache.add" (fun () -> Service.Cache.add c key p)
                | _ -> ());
                r
          in
          span "wire.render" (fun () ->
              match payload with
              | Ok p -> Service.Frame.encode (W.encode_ok ~id ~payload:p)
              | Error e -> Service.Frame.encode (render_error ~id e)))

(* Strip the wire/3 frame header [pipeline] adds. *)
let body_of_frame f =
  String.sub f Service.Frame.header_bytes (String.length f - Service.Frame.header_bytes)

(* Tracing overhead of the uncached pipeline over the first [k]
   bodies. *)
let trace_overhead bodies ~k =
  let off = Spans.create ~enabled:false and on = Spans.create ~enabled:true in
  let time sp i =
    let t0 = Util.now () in
    ignore (pipeline sp ~req:i bodies.(i));
    Util.now () -. t0
  in
  Util.paired_overhead (min k (Array.length bodies)) ~untraced:(time off) ~traced:(time on)

(* Mean of a span's durations in microseconds (0 without spans) and
   the span count. A mean, not a median: single spans of a few
   microseconds sit at the clock's 1 us resolution. *)
let mean_us sp name =
  let d = Spans.durations sp name in
  (Array.length d, if Array.length d = 0 then 0. else 1e6 *. Util.mean d)

(* Total self seconds of one layer's spans. *)
let layer_seconds sp layer =
  match Hashtbl.find_opt (Spans.layer_totals sp) layer with Some (s, _) -> s | None -> 0.

(* A layer's share of the replay's request time. *)
let layer_share sp layer =
  let total = Array.fold_left ( +. ) 0. (Spans.durations sp "request") in
  if total > 0. then layer_seconds sp layer /. total else 0.
