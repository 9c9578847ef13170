(* Timing, order statistics and the metric records every workload
   returns. *)

let now = Unix.gettimeofday

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;  (** Observations behind [value]. *)
}

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank quantile of an ascending array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median xs = quantile_sorted (sorted xs) 0.5

(* A percentile is reported only when at least ten samples lie beyond
   it. *)
let percentile_supported a q =
  let n = Array.length a in
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  n > 0 && n - 1 - max 0 i >= 10

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* The tails are printed with their sample counts but not bounded in
   BENCHMARK.json: their run-to-run spread on a small shared host is
   wider than any useful bound. *)
let tail_quantiles = [ (0.9, "p90"); (0.99, "p99") ]

(* Latency percentiles (seconds in, milliseconds out) under [prefix].
   Unsupported percentiles are reported through [on_unsupported] so the
   caller can fail the run instead of printing a tail the sample cannot
   carry. *)
let latency_metrics ?(prefix = "") ~quantiles ~on_unsupported (lat_s : float array) =
  let a = sorted lat_s in
  List.filter_map
    (fun (q, label) ->
      let name = prefix ^ label ^ "_ms" in
      if percentile_supported a q then
        Some (metric ~samples:(Array.length a) name "ms" (1000. *. quantile_sorted a q))
      else begin
        on_unsupported
          (Printf.sprintf "%s: %d samples cannot support a %s" name
             (Array.length a) label);
        None
      end)
    quantiles

(* Throughput and median latency of a closed-loop run as medians over
   [windows] equal time windows: [done_at] are completion times, [lat]
   the matching latencies (seconds). One burst of host noise (a
   neighbour's CPU steal) moves one window, not the run. *)
let windowed ?(windows = 10) ~t0 ~t1 ~done_at lat =
  let w = (t1 -. t0) /. float_of_int windows in
  let buckets = Array.make windows [] in
  Array.iteri
    (fun i t ->
      let k = int_of_float ((t -. t0) /. w) in
      let k = max 0 (min (windows - 1) k) in
      buckets.(k) <- lat.(i) :: buckets.(k))
    done_at;
  let ops = Array.map (fun b -> float_of_int (List.length b) /. w) buckets in
  let p50 =
    Array.of_list
      (List.filter_map
         (fun b -> if b = [] then None else Some (1000. *. median (Array.of_list b)))
         (Array.to_list buckets))
  in
  let n = Array.length lat in
  [
    metric ~samples:n "ops_per_s" "1/s" (median ops);
    metric ~samples:n "p50_ms" "ms" (median p50);
  ]

(* A growable float buffer (latency samples, timestamps). *)
module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
end

(* [path] like ["cache"; "hits"] into a JSON object, as a float. *)
let rec json_path j = function
  | [] -> Obs.Json.to_float j
  | k :: rest -> (
      match Obs.Json.member k j with Some v -> json_path v rest | None -> None)

let json_path_or j path ~default = Option.value (json_path j path) ~default

(* Index just past the first occurrence of [key] in [s]. *)
let find_after s key =
  let kl = String.length key and sl = String.length s in
  let rec go i =
    if i + kl > sl then None
    else if String.sub s i kl = key then Some (i + kl)
    else go (i + 1)
  in
  go 0

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("pbench: " ^ s)) fmt

(* What the command line passes to a workload. *)
type ctx = {
  bin : string;  (** The probcons executable. *)
  seed : int;
  seconds : float;
  trace : bool;
  cpus : int list;  (** CPUs this process may run on, ascending. *)
}

(* What a workload hands back. [e2e] are the bounded end-to-end
   metrics every workload reports; [extra] the end-to-end metrics only
   this workload has (printed with their sample counts); [layers] the
   per-layer metrics of a traced run. [errors] are correctness
   failures. *)
type outcome = {
  e2e : metric list;
  extra : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  errors : string list;
  config : (string * string) list;  (** Program configuration in use. *)
  spans : Spans.t option;
}

(* Log where two replies first differ, for a failed byte-identity check. *)
let log_mismatch what ~expected ~got =
  let n = min (String.length expected) (String.length got) in
  let i = ref 0 in
  while !i < n && expected.[!i] = got.[!i] do incr i done;
  let around s = String.sub s (max 0 (!i - 40)) (min 120 (String.length s - max 0 (!i - 40))) in
  log "%s differs at byte %d: expected ...%s... got ...%s..." what !i (around expected) (around got)

(* CPU seconds of every reaped child process so far (their rusage is
   collected by waitpid). *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* CPU seconds (user + system, all threads) a live process has used so
   far, from /proc/PID/stat, whose times are in 1/100 s on Linux. *)
let proc_cpu pid =
  let s = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* Fields after the parenthesised command name start at field 3;
     utime and stime are fields 14 and 15. *)
  let after = String.index_from s (String.rindex s ')') ' ' + 1 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* Split the usable CPUs between the load generator and the served
   processes: pin this process (all its threads) to the first CPU and
   return the second for the children, or [None] (nothing pinned) with
   fewer than two CPUs or no taskset. A stall of one CPU then holds up
   one side only, and the served processes' CPU time is spent on one
   core whose speed the reference sampler measures. *)
let split_cpus ctx =
  match ctx.cpus with
  | gen :: srv :: _ when Sys.command "taskset -V >/dev/null 2>&1" = 0 ->
      if Sys.command (Printf.sprintf "taskset -a -p -c %d %d >/dev/null" gen (Unix.getpid ())) <> 0
      then failwith "could not pin the load generator";
      Some srv
  | _ -> None

let cpus_config ctx = function
  | Some c -> Printf.sprintf "generator %d, served %d" (List.hd ctx.cpus) c
  | None -> "unpinned"

let cpu_metric ~cpu_s ~ops =
  metric ~samples:ops "cpu_us_per_op" "us" (1e6 *. cpu_s /. float_of_int (max 1 ops))

(* Relative cost of tracing: [k] requests, each timed once untraced and
   once traced (alternating which goes first), as (traced p50 -
   untraced p50) / untraced p50. [untraced i] and [traced i] return one
   request's seconds. *)
let paired_overhead k ~untraced ~traced =
  if k = 0 then 0.
  else begin
    let t_off = Array.make k 0. and t_on = Array.make k 0. in
    for i = 0 to k - 1 do
      if i mod 2 = 0 then begin
        t_off.(i) <- untraced i;
        t_on.(i) <- traced i
      end
      else begin
        t_on.(i) <- traced i;
        t_off.(i) <- untraced i
      end
    done;
    let m_off = median t_off in
    (median t_on -. m_off) /. m_off
  end
