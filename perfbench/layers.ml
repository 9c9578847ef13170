(* Per-layer measurements shared by the workloads: wire/router figures
   from a replay's spans, and benchmark-side calls into layers the
   replay does not reach on its own. *)

open Util

let mean_us arr = if Array.length arr = 0 then 0. else 1e6 *. mean arr

let span_metric sp name span =
  let samples, v = Replay.mean_us sp span in
  metric ~samples name "us" v

let mean_len arr =
  if Array.length arr = 0 then 0.
  else
    float_of_int (Array.fold_left (fun acc s -> acc + String.length s) 0 arr)
    /. float_of_int (Array.length arr)

(* Wire, registry, router and count-DP figures of a query replay, as
   means per call. Byte sizes include the 6-byte wire/3 frame header. *)
let wire_metrics sp ~bodies ~replies =
  let frame = float_of_int Service.Frame.header_bytes in
  [
    span_metric sp "wire.parse_us" "wire.parse";
    span_metric sp "wire.key_us" "wire.key";
    span_metric sp "wire.render_us" "wire.render";
    metric ~samples:(Array.length bodies) "wire.req_bytes" "bytes" (frame +. mean_len bodies);
    metric ~samples:(Array.length replies) "wire.reply_bytes" "bytes" (frame +. mean_len replies);
    span_metric sp "registry.validate_us" "registry.validate";
    metric ~samples:(Fvec.length Replay.dp_router) "router.analyze_dp_us" "us"
      (mean_us (Fvec.to_array Replay.dp_router));
    metric ~samples:(Fvec.length Replay.dp_analysis) "analysis.count_dp_us" "us"
      (mean_us (Fvec.to_array Replay.dp_analysis));
  ]

(* Mean cost of one [Prob.Incremental.update] on a fleet the size of
   the workload's largest horizon trajectories (9 nodes), over 20000
   seeded single-node probability changes timed as one batch. *)
let incremental_update_us ~seed =
  let rng = Prob.Rng.of_pair seed 0x1c0 in
  let n = 9 in
  let eng = Prob.Incremental.create (Array.init n (fun _ -> 0.001 +. (0.05 *. Prob.Rng.float rng))) in
  let updates = Array.init 20_000 (fun _ -> 0.001 +. (0.05 *. Prob.Rng.float rng)) in
  let t0 = now () in
  Array.iteri (fun k p -> Prob.Incremental.update eng (k mod n) p) updates;
  1e6 *. (now () -. t0) /. float_of_int (Array.length updates)
