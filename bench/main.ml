(* Reproduction harness: regenerates every table and quantitative claim
   of "Real Life Is Uncertain. Consensus Should Be Too!" (HotOS 2025),
   then micro-benchmarks the analysis kernels with Bechamel.

   One section per experiment in DESIGN.md's index (T1, T2, E3-E20),
   then the performance sections P1-P5 (parallel engine, observability
   overhead, query service, fleet engine, horizon trajectories), whose
   rows form the --json artifact that tools/validate_bench gates.
   Absolute latencies are machine-dependent; the reproduced tables are
   deterministic. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let pct = Prob.Nines.percent_string

(* ------------------------------------------------- JSON perf trail *)

(* Rows for --json FILE: a machine-readable perf trajectory that future
   changes can diff against. *)
type json_row = {
  kernel : string;
  n : int;
  engine : string;
  domains : int;
  ns_per_run : float;
  scenario : string option;
      (* Repo-relative path of the committed scenario file that drove
         the kernel, when there is one — what makes the row
         reproducible from the artifact alone. *)
  extra : (string * Obs.Json.t) list;
      (* Fields a gate checks beside the timing: max_diff on the
         incremental horizon row, errors/mismatches/elapsed_seconds on
         the loadgen rows. *)
}

let json_rows : json_row list ref = ref []

let record_row ?scenario ?(extra = []) ~kernel ~n ~engine ~domains ~ns_per_run
    () =
  json_rows :=
    { kernel; n; engine; domains; ns_per_run; scenario; extra } :: !json_rows

(* Wall-clock nanoseconds per call of [f], averaged over [reps] calls. *)
let time_ns reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps

(* ------------------------------------------------- scenario files *)

(* The P1-P3 workloads are committed scenarios, not hardcoded
   literals: the bench loads them through the same [Scenario.of_json]
   parser as the CLI and the wire, and the artifact rows carry the
   file path (validated by tools/validate_bench). *)
let scenario_dir () =
  match
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "bench/scenarios"; "../bench/scenarios"; "../../bench/scenarios" ]
  with
  | Some d -> d
  | None ->
      failwith
        "bench/scenarios not found: run the bench from the repository root"

let load_scenario name =
  let path = Filename.concat (scenario_dir ()) name in
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Probcons.Scenario.of_string contents with
  | Ok s -> ("bench/scenarios/" ^ name, s)
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* The source revision the bench was built from, as [git describe
   --always --dirty] prints it ("unknown" outside a git checkout). *)
let source_revision () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Schema "probcons-bench/2": an object with perf rows plus the metrics
   snapshot of the whole reproduction run, so CI can hold a line on both
   timings and telemetry (tools/validate_bench checks the shape). The
   [host] object records where the numbers came from. *)
let write_json path =
  let row { kernel; n; engine; domains; ns_per_run; scenario; extra } =
    Obs.Json.Obj
      ([
         ("kernel", Obs.Json.String kernel);
         ("n", Obs.Json.Int n);
         ("engine", Obs.Json.String engine);
         ("domains", Obs.Json.Int domains);
         ("ns_per_run", Obs.Json.number (Float.round ns_per_run));
       ]
      @ (match scenario with
        | None -> []
        | Some path -> [ ("scenario", Obs.Json.String path) ])
      @ extra)
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "probcons-bench/2");
        ( "host",
          Obs.Json.Obj
            [
              ("cores", Obs.Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Obs.Json.String Sys.ocaml_version);
              ("commit", Obs.Json.String (source_revision ()));
            ] );
        ("rows", Obs.Json.List (List.rev_map row !json_rows));
        ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nwrote %d benchmark rows to %s\n" (List.length !json_rows) path

(* ---------------------------------------------------------------- T1 *)

let table1 () =
  section "T1. Table 1: PBFT reliability, uniform p_u = 1%";
  let t =
    Probcons.Report.create
      ~header:[ "N"; "|Qeq|"; "|Qper|"; "|Qvc|"; "|Qvc_t|"; "Safe"; "Live"; "Safe&Live" ]
  in
  List.iter
    (fun n ->
      let params = Probcons.Pbft_model.default n in
      let fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n ~p:0.01 () in
      let r = Probcons.Analysis.run (Probcons.Pbft_model.protocol params) fleet in
      Probcons.Report.add_row t
        [
          string_of_int n;
          string_of_int params.Probcons.Pbft_model.q_eq;
          string_of_int params.Probcons.Pbft_model.q_per;
          string_of_int params.Probcons.Pbft_model.q_vc;
          string_of_int params.Probcons.Pbft_model.q_vc_t;
          pct r.Probcons.Analysis.p_safe;
          pct r.Probcons.Analysis.p_live;
          pct r.Probcons.Analysis.p_safe_live;
        ])
    [ 4; 5; 7; 8 ];
  print_string (Probcons.Report.render t);
  print_endline
    "paper: safe 99.94/99.9990/99.997/99.99993, live 99.94/99.90/99.997/99.995"

(* ---------------------------------------------------------------- T2 *)

let table2 () =
  section "T2. Table 2: Raft reliability for uniform node failure p_u";
  let t =
    Probcons.Report.create
      ~header:[ "N"; "|Qper|"; "|Qvc|"; "S&L p=1%"; "S&L p=2%"; "S&L p=4%"; "S&L p=8%" ]
  in
  List.iter
    (fun n ->
      let params = Probcons.Raft_model.default n in
      Probcons.Report.add_row t
        ([
           string_of_int n;
           string_of_int params.Probcons.Raft_model.q_per;
           string_of_int params.Probcons.Raft_model.q_vc;
         ]
        @ List.map
            (fun p -> pct (Probcons.Raft_model.safe_and_live_uniform ~n ~p))
            [ 0.01; 0.02; 0.04; 0.08 ]))
    [ 3; 5; 7; 9 ];
  print_string (Probcons.Report.render t);
  print_endline
    "paper row N=3: 99.97 / 99.88 / 99.53 / 98.18 (all rows match to printed digits)"

(* ---------------------------------------------------------------- E3 *)

let e3_equivalence () =
  section "E3. Cheaper fleets with equal nines (3 nodes @1% vs 9 @8%)";
  let target = Probcons.Equivalence.raft_reliability ~n:3 ~p:0.01 in
  Printf.printf "target: Raft n=3, p=1%% -> %s safe-and-live\n" (pct target);
  List.iter
    (fun p ->
      match
        Probcons.Equivalence.min_raft_cluster ~target ~p ~tolerance:5e-5 ()
      with
      | Some e ->
          Printf.printf "  p=%-4g -> n=%-2d (%s)\n" p e.Probcons.Equivalence.n
            (pct e.Probcons.Equivalence.p_safe_live)
      | None -> Printf.printf "  p=%-4g -> unattainable\n" p)
    [ 0.01; 0.02; 0.04; 0.08 ];
  (* The cost consequence, over the synthetic catalog. *)
  let premium = List.hd Costmodel.Machine.default_catalog in
  let baseline =
    Option.get (Costmodel.Optimizer.min_cluster premium ~target:0.9997 ())
  in
  (match Costmodel.Optimizer.optimize ~target:0.9997 () with
  | Some best ->
      Printf.printf
        "cost: baseline %d x %s at $%.2f/h; cheapest %d x %s at $%.2f/h -> %.1fx cheaper\n"
        baseline.Costmodel.Optimizer.n baseline.machine.Costmodel.Machine.name
        baseline.Costmodel.Optimizer.hourly_cost best.Costmodel.Optimizer.n
        best.machine.Costmodel.Machine.name best.Costmodel.Optimizer.hourly_cost
        (Costmodel.Optimizer.savings_vs ~baseline best)
  | None -> ());
  print_endline "paper: same 99.97% from 9 nodes at p=8%; ~3x cost reduction"

(* ---------------------------------------------------------------- E4 *)

let e4_vc_trigger () =
  section "E4. Random view-change trigger quorums (N=100, p=1%)";
  List.iter
    (fun k ->
      let p = Quorum.Probabilistic.contains_correct ~n:100 ~k ~p:0.01 in
      Printf.printf "  |Qvc_t| = %2d -> contains a correct node w.p. %s (%.1f nines)\n" k
        (pct p) (Prob.Nines.of_prob p))
    [ 2; 3; 5; 34 ];
  Printf.printf "  smallest k for ten nines: %d\n"
    (Quorum.Probabilistic.quorum_size_for_correct ~p:0.01 ~target:(1. -. 1e-10));
  print_endline "paper: 5 random nodes already give ten nines; f-threshold insists on 34"

(* ---------------------------------------------------------------- E5 *)

let e5_heterogeneous () =
  section "E5. Heterogeneous 7-node cluster (4 @8% + 3 @1%)";
  let raft = Probcons.Raft_model.protocol (Probcons.Raft_model.default 7) in
  let flaky = Faultmodel.Fleet.uniform ~n:7 ~p:0.08 () in
  let mixed = Faultmodel.Fleet.mixed [ (4, 0.08); (3, 0.01) ] in
  let base = Probcons.Analysis.run raft flaky in
  let upgraded = Probcons.Analysis.run raft mixed in
  Printf.printf "  all-flaky:              S&L %s   (paper: 99.88%%)\n"
    (pct base.Probcons.Analysis.p_safe_live);
  Printf.printf "  3 nodes upgraded to 1%%: S&L %s   (paper: ~99.98%%)\n"
    (pct upgraded.Probcons.Analysis.p_safe_live);
  let dur placement = Probcons.Durability.durability mixed placement ~size:4 in
  Printf.printf "  durability, worst-case placement:        %s\n"
    (pct (dur Probcons.Durability.Worst_case));
  Printf.printf "  durability, quorum must hold 1 reliable: %s  (paper: 99.994%%)\n"
    (pct (dur (Probcons.Durability.Constrained { reliable = [ 4; 5; 6 ]; min_reliable = 1 })));
  Printf.printf "  durability, best-case placement:         %s\n"
    (pct (dur Probcons.Durability.Best_case))

(* ---------------------------------------------------------------- E6 *)

let e6_tradeoff () =
  section "E6. Hidden safety/liveness trade-off (PBFT 4 vs 5 vs 7 nodes)";
  List.iter
    (fun p ->
      let c = Probcons.Tradeoff.pbft_node_count ~p ~n_base:4 ~n_alt:5 in
      Printf.printf "  p=%-6g safety x%-6.1f liveness /%.2f\n" p
        c.Probcons.Tradeoff.safety_improvement c.Probcons.Tradeoff.liveness_degradation)
    [ 0.01; 0.0125; 0.014 ];
  let pbft n =
    Probcons.Analysis.run
      (Probcons.Pbft_model.protocol (Probcons.Pbft_model.default n))
      (Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n ~p:0.01 ())
  in
  let five = pbft 5 and seven = pbft 7 in
  Printf.printf "  5-node safety %s vs 7-node safety %s -> 5-node %s safer, 40%% cheaper\n"
    (pct five.Probcons.Analysis.p_safe)
    (pct seven.Probcons.Analysis.p_safe)
    (if five.Probcons.Analysis.p_safe > seven.Probcons.Analysis.p_safe then "is"
     else "is NOT");
  print_endline "paper: 42-60x safety gain, 1.67x liveness cost; 5-node safer than 7-node"

(* ---------------------------------------------------------------- E7 *)

let e7_large_cluster () =
  section "E7. 100-node cluster, |Qper| = 10, p = 10%";
  let p_ten_faults = Prob.Distribution.binomial_tail_ge ~n:100 ~p:0.1 10 in
  Printf.printf "  P(at least 10 faults):                    %.2f   (paper: ~50%%)\n"
    p_ten_faults;
  let p_exact_overlap = 0.1 ** 10. in
  Printf.printf "  P(faults hit one specific 10-node quorum): %.1e (paper: 1 in 10 billion)\n"
    p_exact_overlap;
  (* And the E7 framing end-to-end: expected loss probability if the
     quorum was placed uniformly at random. *)
  let fleet = Faultmodel.Fleet.uniform ~n:100 ~p:0.1 () in
  Printf.printf "  random-quorum data-loss probability:       %.1e\n"
    (Probcons.Durability.data_loss_probability fleet Probcons.Durability.Random ~size:10);
  (* Conditional view: even GIVEN exactly 10 failures, covering the one
     quorum that matters is hypergeometrically unlikely. *)
  Printf.printf "  P(loss | exactly 10 failures):             %.1e\n"
    (Quorum.Formation.loss_given_failures ~n:100 ~k:10 ~j:10);
  (* The paper's dependence caveat, quantified: two quorums drawn from
     the same live set intersect more often than independence says. *)
  Printf.printf
    "  quorum-intersection miss, independent model vs shared-live-set: %.1e vs %.1e (%.1fx)\n"
    (1. -. Quorum.Formation.intersection_independent ~n:100 ~k1:10 ~k2:10)
    (1. -. Quorum.Formation.intersection_given_live ~n:100 ~p:0.1 ~k1:10 ~k2:10)
    (Quorum.Formation.dependence_gain ~n:100 ~p:0.1 ~k1:10 ~k2:10)

(* ---------------------------------------------------------------- E8 *)

let e8_simulation () =
  section "E8. Analytical liveness vs executed protocols (Monte Carlo)";
  (* Raft: sample failure configurations, execute, compare. *)
  let n = 5 and p = 0.10 in
  let fleet = Faultmodel.Fleet.uniform ~n ~p () in
  let analytical =
    Probcons.Analysis.run (Probcons.Raft_model.protocol (Probcons.Raft_model.default n)) fleet
  in
  let commands = List.init 5 (fun i -> 1000 + i) in
  let trials = 200 in
  let rng = Prob.Rng.create 99 in
  let crash_probs = Faultmodel.Fleet.crash_probs fleet in
  let byz_probs = Array.make n 0. in
  let live_count = ref 0 and safe_count = ref 0 in
  for trial = 1 to trials do
    let plan = Dessim.Fault_injector.sample_plan rng ~crash_probs ~byz_probs in
    let cluster = Raft_sim.Raft_cluster.create ~n ~seed:trial () in
    Raft_sim.Raft_cluster.inject cluster plan;
    Raft_sim.Raft_cluster.submit_workload cluster ~commands ~start:500. ~interval:100.;
    Raft_sim.Raft_cluster.run cluster ~until:20_000.;
    let failed = List.map fst plan in
    let correct = List.filter (fun i -> not (List.mem i failed)) (List.init n Fun.id) in
    let report = Raft_sim.Raft_checker.check cluster ~expected:commands ~correct in
    if report.Raft_sim.Raft_checker.live then incr live_count;
    if Raft_sim.Raft_checker.safe report then incr safe_count
  done;
  let low, high = Prob.Montecarlo.wilson_interval ~successes:!live_count ~trials in
  Printf.printf "  Raft n=%d p=%g: analytical P(live) = %s\n" n p
    (pct analytical.Probcons.Analysis.p_live);
  Printf.printf "  simulated: %d/%d live, 95%% CI [%.3f, %.3f]; prediction inside: %b\n"
    !live_count trials low high
    (analytical.Probcons.Analysis.p_live >= low
    && analytical.Probcons.Analysis.p_live <= high);
  Printf.printf "  all %d executed runs safe: %b\n" trials (!safe_count = trials);
  (* PBFT: Byzantine primary, safety and recovery. *)
  let pbft_ok = ref 0 in
  let pbft_trials = 10 in
  for seed = 1 to pbft_trials do
    let cluster = Pbft_sim.Pbft_cluster.create ~n:4 ~seed () in
    Pbft_sim.Pbft_cluster.inject cluster [ (0, Dessim.Fault_injector.Byzantine_from 0.) ];
    Pbft_sim.Pbft_cluster.submit_workload cluster ~commands ~start:200. ~interval:150.;
    Pbft_sim.Pbft_cluster.run cluster ~until:60_000.;
    let report =
      Pbft_sim.Pbft_checker.check cluster ~expected:commands ~correct:[ 1; 2; 3 ]
        ~honest:[ 1; 2; 3 ]
    in
    if report.Pbft_sim.Pbft_checker.agreement_ok && report.Pbft_sim.Pbft_checker.live then
      incr pbft_ok
  done;
  Printf.printf "  PBFT n=4 with Byzantine primary: safe and live in %d/%d runs\n" !pbft_ok
    pbft_trials

(* ---------------------------------------------------------------- E9 *)

let e9_probnative () =
  section "E9. Probability-native components: dynamic quorums and committees";
  let fleet9 = Faultmodel.Fleet.uniform ~n:9 ~p:0.02 () in
  print_endline "  flexible Raft sizings for 9 nodes at p=2%:";
  List.iter
    (fun (c : Probnative.Dynamic_quorum.raft_choice) ->
      Printf.printf "    qper=%d qvc=%d -> live %s\n"
        c.params.Probcons.Raft_model.q_per c.params.Probcons.Raft_model.q_vc
        (pct c.p_live))
    (Probnative.Dynamic_quorum.raft_sizings fleet9);
  let big = Faultmodel.Fleet.mixed [ (4, 0.005); (10, 0.02); (6, 0.08) ] in
  (match Probnative.Committee.reliability_ranked ~target:(Prob.Nines.to_prob 4.) big with
  | Some c ->
      Printf.printf "  ranked committee for 4 nines over 20 mixed nodes: %d members (%s)\n"
        (List.length c.Probnative.Committee.members)
        (pct c.Probnative.Committee.p_safe_live)
  | None -> ());
  let mixed = Faultmodel.Fleet.mixed [ (4, 0.08); (3, 0.01) ] in
  Printf.printf "  leader fault probability: oblivious %.3f vs reputation %.3f\n"
    (Probnative.Leader_reputation.leader_fault_probability mixed ~strategy:`Uniform)
    (Probnative.Leader_reputation.leader_fault_probability mixed ~strategy:`Reputation)

(* ---------------------------------------------------------------- E10 *)

let e10_markov () =
  section "E10. Storage-style Markov metrics for consensus clusters";
  let t =
    Probcons.Report.create
      ~header:[ "N"; "quorum"; "AFR"; "MTTF (h)"; "MTTDL (h)"; "availability" ]
  in
  List.iter
    (fun (n, afr) ->
      let quorum = (n / 2) + 1 in
      let spec = Markov.Repair_model.of_afr ~n ~quorum ~afr ~mttr_hours:24. in
      Probcons.Report.add_row t
        [
          string_of_int n;
          string_of_int quorum;
          Printf.sprintf "%g%%" (afr *. 100.);
          Printf.sprintf "%.3g" (Markov.Repair_model.mttf spec);
          Printf.sprintf "%.3g" (Markov.Repair_model.mttdl spec);
          pct (Markov.Repair_model.availability spec);
        ])
    [ (3, 0.04); (5, 0.04); (3, 0.08); (5, 0.08); (9, 0.08) ];
  print_string (Probcons.Report.render t)

(* ---------------------------------------------------------------- E11 *)

let e11_benor () =
  section "E11. Beyond quorums: Ben-Or randomized consensus";
  (* Decision-round distribution for split inputs, across seeds; local
     coins vs a Rabia-style shared coin. *)
  List.iter
    (fun n ->
      let initial = List.init n (fun i -> i mod 2) in
      let trials = 40 in
      let sweep ?common_coin () =
        let total_rounds = ref 0 and max_rounds = ref 0 and ok = ref 0 in
        for seed = 1 to trials do
          let cluster =
            Benor_sim.Benor_cluster.create ~seed ?common_coin ~initial_values:initial ()
          in
          Benor_sim.Benor_cluster.run cluster ~until:1e8;
          let report =
            Benor_sim.Benor_cluster.check cluster ~correct:(List.init n Fun.id)
          in
          if report.Benor_sim.Benor_cluster.agreement_ok
             && report.Benor_sim.Benor_cluster.all_correct_decided
          then incr ok;
          total_rounds := !total_rounds + report.Benor_sim.Benor_cluster.max_round;
          max_rounds := max !max_rounds report.Benor_sim.Benor_cluster.max_round
        done;
        (!ok, float_of_int !total_rounds /. float_of_int trials, !max_rounds)
      in
      let ok_l, mean_l, max_l = sweep () in
      let ok_c, mean_c, max_c = sweep ~common_coin:42 () in
      Printf.printf
        "  n=%-2d local coin: %d/%d ok, mean %.1f rounds (max %d); shared coin: %d/%d ok, \
         mean %.1f (max %d)\n"
        n ok_l trials mean_l max_l ok_c trials mean_c max_c)
    [ 3; 5; 7; 9 ];
  (* Analytical: quorum-free safety is immune to crash counts. *)
  let fleet = Faultmodel.Fleet.uniform ~n:5 ~p:0.3 () in
  let benor =
    Probcons.Analysis.run (Probcons.Benor_model.protocol (Probcons.Benor_model.default 5))
      fleet
  in
  let raft =
    Probcons.Analysis.run (Probcons.Raft_model.protocol (Probcons.Raft_model.default 5))
      fleet
  in
  Printf.printf
    "  crash p=30%%: Ben-Or safe %s / live %s; Raft safe %s / live %s\n"
    (pct benor.Probcons.Analysis.p_safe) (pct benor.Probcons.Analysis.p_live)
    (pct raft.Probcons.Analysis.p_safe) (pct raft.Probcons.Analysis.p_live);
  (* Rabia-style leaderless SMR on top of the same idea: full log
     replication with no leader and no intersecting quorums. *)
  let ok = ref 0 and trials = 20 in
  for seed = 1 to trials do
    let cluster = Rabia_sim.Rabia_cluster.create ~n:5 ~seed () in
    let cmds = List.init 10 (fun i -> 100 + i) in
    Rabia_sim.Rabia_cluster.inject cluster
      (Dessim.Fault_injector.of_failed_nodes ~at:300. [ seed mod 5; (seed + 2) mod 5 ]);
    Rabia_sim.Rabia_cluster.submit_workload cluster ~commands:cmds ~start:100.
      ~interval:80.;
    Rabia_sim.Rabia_cluster.run cluster ~until:60_000.;
    let correct =
      List.filter (fun i -> i <> seed mod 5 && i <> (seed + 2) mod 5) (List.init 5 Fun.id)
    in
    let r = Rabia_sim.Rabia_cluster.check cluster ~expected:cmds ~correct in
    if r.Rabia_sim.Rabia_cluster.agreement_ok && r.Rabia_sim.Rabia_cluster.live then
      incr ok
  done;
  Printf.printf
    "  Rabia-style SMR, 2 of 5 crashed: %d/%d runs replicate the full log leaderlessly\n"
    !ok trials;
  (* Message accounting: Rabia pays several all-to-all phases per slot
     but nothing when idle; Raft pays one leader round-trip per command
     plus continuous heartbeats. At this (low) load they come out
     comparable. *)
  let raft_cluster = Raft_sim.Raft_cluster.create ~n:5 ~seed:3 () in
  let cmds = List.init 20 (fun i -> 100 + i) in
  Raft_sim.Raft_cluster.submit_workload raft_cluster ~commands:cmds ~start:1000.
    ~interval:100.;
  Raft_sim.Raft_cluster.run raft_cluster ~until:10_000.;
  let raft_sent, _ = Raft_sim.Raft_cluster.message_stats raft_cluster in
  let rabia_cluster = Rabia_sim.Rabia_cluster.create ~n:5 ~seed:3 () in
  Rabia_sim.Rabia_cluster.submit_workload rabia_cluster ~commands:cmds ~start:1000.
    ~interval:100.;
  Rabia_sim.Rabia_cluster.run rabia_cluster ~until:10_000.;
  let rabia_sent, _ = Rabia_sim.Rabia_cluster.message_stats rabia_cluster in
  Printf.printf
    "  messages for 20 commands, n=5: Raft %d (incl. heartbeats), Rabia %d (idle-silent)\n"
    raft_sent rabia_sent

(* ---------------------------------------------------------------- E12 *)

let e12_mixed_faults () =
  section "E12. Mixed crash/Byzantine faults: Raft vs PBFT vs Upright";
  (* The paper's §2(4) numbers: ~4% AFR crashes, Byzantine corruption
     ~0.25% of faults. *)
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:0.0025 ~n:7 ~p:0.04 () in
  let t =
    Probcons.Report.create ~header:[ "protocol"; "safe"; "live"; "safe&live" ]
  in
  List.iter
    (fun (name, r) ->
      Probcons.Report.add_row t
        [
          name;
          pct r.Probcons.Analysis.p_safe;
          pct r.Probcons.Analysis.p_live;
          pct r.Probcons.Analysis.p_safe_live;
        ])
    (Probcons.Upright_model.compare_with_classics fleet);
  print_string (Probcons.Report.render t);
  print_endline
    "  (Raft gambles on zero Byzantine faults; PBFT pays for all-Byzantine;\n\
    \   the dual-threshold model prices the two classes separately)"

(* ---------------------------------------------------------------- E13 *)

let e13_bounds () =
  section "E13. Exact tails vs Chernoff/Hoeffding bounds";
  let t =
    Probcons.Report.create
      ~header:[ "n"; "p"; "k"; "exact"; "chernoff-KL"; "hoeffding"; "chern./exact" ]
  in
  List.iter
    (fun (n, p, k) ->
      let c = Prob.Bounds.compare_tail ~n ~p ~k in
      Probcons.Report.add_row t
        [
          string_of_int n;
          Printf.sprintf "%g" p;
          string_of_int k;
          Printf.sprintf "%.2e" c.Prob.Bounds.exact;
          Printf.sprintf "%.2e" c.Prob.Bounds.chernoff;
          Printf.sprintf "%.2e" c.Prob.Bounds.hoeffding;
          Printf.sprintf "%.1fx" c.Prob.Bounds.chernoff_ratio;
        ])
    [ (3, 0.01, 2); (5, 0.01, 3); (9, 0.08, 5); (100, 0.1, 20); (100, 0.01, 5) ];
  print_string (Probcons.Report.render t);
  print_endline
    "  (exponential bounds overstate the failure probability at cluster scale —\n\
    \   the regime where the paper computes tails exactly)"

(* ---------------------------------------------------------------- E14 *)

let e14_end_to_end () =
  section "E14. End-to-end SLOs: availability and durability nines";
  let spec afr = Markov.Repair_model.of_afr ~n:5 ~quorum:3 ~afr ~mttr_hours:24. in
  List.iter
    (fun (afr, failover_hours) ->
      let t =
        Probcons.End_to_end.evaluate ~spec:(spec afr) ~failover_hours
          ~mission_hours:87_660.
      in
      Format.printf "  AFR %g%%, failover %.2gh: %a@." (afr *. 100.) failover_hours
        Probcons.End_to_end.pp t)
    [ (0.04, 0.01); (0.04, 1.0); (0.08, 0.01) ];
  (match
     Probcons.End_to_end.required_failover_hours ~spec:(spec 0.04)
       ~availability_nines:5.
   with
  | Some budget ->
      Printf.printf "  failover budget for five nines at AFR 4%%: %.1f hours/incident\n"
        budget
  | None -> print_endline "  five nines unattainable");
  print_endline
    "  (a live protocol with slow recovery misses the availability SLO - paper s4)"

(* ---------------------------------------------------------------- E15 *)

let e15_planner () =
  section "E15. Probability-native deployment planner, plan -> execution";
  let fleet = Faultmodel.Fleet.mixed [ (3, 0.001); (8, 0.02); (5, 0.10) ] in
  Printf.printf "  fleet: 3 nodes at p=0.1%%, 8 at 2%%, 5 at 10%%\n";
  List.iter
    (fun nines ->
      let target = Prob.Nines.to_prob nines in
      match Probnative.Planner.plan ~target fleet with
      | Some plan ->
          Format.printf "  target %.0f nines: %a@." nines Probnative.Planner.pp_plan plan
      | None -> Printf.printf "  target %.0f nines: unattainable\n" nines)
    [ 3.; 4.; 5.; 6. ];
  (match Probnative.Planner.plan ~target:(Prob.Nines.to_prob 4.) fleet with
  | Some plan ->
      let ok = ref 0 and preferred = ref 0 in
      let runs = 20 in
      for seed = 1 to runs do
        let e = Probnative.Planner.execute ~seed fleet plan in
        if e.Probnative.Planner.safe && e.Probnative.Planner.live then incr ok;
        if e.Probnative.Planner.leader_was_most_reliable then incr preferred
      done;
      Printf.printf
        "  executing the 4-nines plan: %d/%d runs safe+live; preferred leader won %d/%d\n"
        !ok runs !preferred runs
  | None -> ())

(* ---------------------------------------------------------------- E16 *)

let e16_reconfig () =
  section "E16. Preemptive reconfiguration, executed (managed vs unmanaged)";
  (* Three wearing-out members (Weibull wear-out inside the mission),
     four fresh spares; node crash times are sampled from the same
     curves in both arms. One simulated ms = one mission hour. *)
  let aging = Faultmodel.Fault_curve.Weibull { shape = 4.; scale = 15_000. } in
  let fresh = Faultmodel.Fault_curve.Weibull { shape = 4.; scale = 80_000. } in
  let universe =
    Faultmodel.Fleet.of_nodes
      (List.init 7 (fun id -> Faultmodel.Node.make ~id (if id < 3 then aging else fresh)))
  in
  let runs = 10 in
  let managed = ref 0 and unmanaged = ref 0 and swaps = ref 0 in
  for seed = 1 to runs do
    let m =
      Probnative.Reconfig_executor.run ~seed ~universe ~initial_members:[ 0; 1; 2 ]
        ~target_live:0.999 ~review_interval:1000. ~horizon:30_000. ~commands:20 ()
    in
    let u =
      Probnative.Reconfig_executor.run_unmanaged ~seed ~universe
        ~initial_members:[ 0; 1; 2 ] ~horizon:30_000. ~commands:20 ()
    in
    if m.Probnative.Reconfig_executor.managed_live then incr managed;
    if u.Probnative.Reconfig_executor.managed_live then incr unmanaged;
    swaps := !swaps + m.Probnative.Reconfig_executor.swaps_completed
  done;
  Printf.printf
    "  managed (predictive swaps): %d/%d missions fully live (%.1f swaps/mission)\n"
    !managed runs
    (float_of_int !swaps /. float_of_int runs);
  Printf.printf "  unmanaged (f-threshold fatalism): %d/%d missions fully live\n"
    !unmanaged runs;
  print_endline
    "  (fault curves predict wear-out; reconfiguring BEFORE failure preserves the\n\
    \   quorum - the paper's preemptive-reconfiguration direction, executed)"

(* ---------------------------------------------------------------- E17 *)

let e17_failure_detector () =
  section "E17. Phi-accrual failure detection: threshold vs latency/false-positives";
  (* A monitored node heartbeats every 100ms through a jittery network
     (5ms base + exp(10ms) tail); it crashes at t=60s. For each phi
     threshold: false positives while healthy, detection delay after
     the crash. *)
  let run_one threshold =
    let engine = Dessim.Engine.create ~seed:31 () in
    let net =
      Dessim.Network.create ~engine ~n:2
        ~latency:(Dessim.Network.Lognormal_ish { base = 5.; mean_extra = 10. })
        ()
    in
    let detector = Probnative.Failure_detector.create () in
    let crash_time = 60_000. in
    let false_positives = ref 0 and detected_at = ref None in
    Dessim.Network.set_handler net 1 (fun ~src:_ () ->
        Probnative.Failure_detector.heartbeat detector ~now:(Dessim.Engine.now engine));
    (* Heartbeats until the crash. *)
    let t = ref 100. in
    while !t < crash_time do
      let time = !t in
      ignore
        (Dessim.Engine.schedule_at engine ~time (fun () ->
             Dessim.Network.send net ~src:0 ~dst:1 ()));
      t := !t +. 100.
    done;
    (* Poll the detector every 20ms through t=90s. *)
    let p = ref 20. in
    while !p < 90_000. do
      let time = !p in
      ignore
        (Dessim.Engine.schedule_at engine ~time (fun () ->
             let suspect =
               Probnative.Failure_detector.suspect ~threshold detector ~now:time
             in
             if suspect && time < crash_time then incr false_positives;
             if suspect && time >= crash_time && !detected_at = None then
               detected_at := Some (time -. crash_time)));
      p := !p +. 20.
    done;
    Dessim.Engine.run engine;
    (!false_positives, !detected_at)
  in
  List.iter
    (fun threshold ->
      let false_positives, detected = run_one threshold in
      Printf.printf "  phi > %-4g false positives: %-4d detection delay: %s\n" threshold
        false_positives
        (match detected with
        | Some d -> Printf.sprintf "%.0f ms" d
        | None -> "not detected"))
    [ 0.5; 1.; 2.; 4.; 8. ];
  print_endline
    "  (the threshold IS the guarantee: phi > k admits ~10^-k false-positive odds\n\
    \   per check, and detection delay grows with the required confidence)"

(* ---------------------------------------------------------------- E18 *)

let e18_stake () =
  section "E18. Stake-weighted consensus: concentration vs reliability";
  let fleet = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:9 ~p:0.03 () in
  let t =
    Probcons.Report.create
      ~header:[ "stake distribution"; "nakamoto"; "safe"; "live" ]
  in
  List.iter
    (fun (label, stakes) ->
      let params = Probcons.Stake_model.make stakes in
      let r = Probcons.Analysis.run (Probcons.Stake_model.protocol params) fleet in
      Probcons.Report.add_row t
        [
          label;
          string_of_int (Probcons.Stake_model.nakamoto_coefficient params);
          pct r.Probcons.Analysis.p_safe;
          pct r.Probcons.Analysis.p_live;
        ])
    [
      ("flat (1 each)", Array.make 9 1.);
      ("mild skew (3,2,2,1...)", [| 3.; 2.; 2.; 1.; 1.; 1.; 1.; 1.; 1. |]);
      ("whale (8,1,1,...)", Array.append [| 8. |] (Array.make 8 1.));
    ];
  print_string (Probcons.Report.render t);
  print_endline
    "  (same machines, same fault curves: stake concentration alone destroys the\n\
    \   guarantee - the probabilistic analysis prices decentralization directly)"

(* ---------------------------------------------------------------- E19 *)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let e19_tail_latency () =
  section "E19. Reputation-based leader selection vs tail latency";
  (* 4 flaky nodes (periodic crash-restarts) + 1 stable node. With
     uniform timeouts the leadership keeps landing on flaky nodes and
     dying with them; reputation multipliers keep the stable node in
     charge. *)
  let fleet = Faultmodel.Fleet.mixed [ (4, 0.08); (1, 0.002) ] in
  let horizon = 60_000. in
  let run ~multipliers ~seed =
    let cluster =
      Raft_sim.Raft_cluster.create ~n:5 ~seed ?timeout_multipliers:multipliers ()
    in
    (* Each flaky node flaps every 6s, staggered, for 1.2s. *)
    let plan =
      List.concat_map
        (fun node ->
          List.filteri (fun i _ -> i < 9)
            (List.init 10 (fun k ->
                 let at = 3000. +. (float_of_int k *. 6000.) +. (float_of_int node *. 700.) in
                 (node, Dessim.Fault_injector.Crash_restart { at; back_at = at +. 1200. }))))
        [ 0; 1; 2; 3 ]
    in
    Raft_sim.Raft_cluster.inject cluster plan;
    let commands = List.init 100 (fun i -> 10_000 + i) in
    let submissions =
      List.mapi (fun i cmd -> (cmd, 2000. +. (float_of_int i *. 500.))) commands
    in
    Raft_sim.Raft_cluster.submit_workload cluster ~commands ~start:2000. ~interval:500.;
    Raft_sim.Raft_cluster.run cluster ~until:horizon;
    Raft_sim.Raft_checker.command_latencies cluster ~submissions ~horizon
  in
  let collect ~multipliers =
    let all = ref [] in
    for seed = 1 to 5 do
      all := run ~multipliers ~seed @ !all
    done;
    let a = Array.of_list !all in
    Array.sort compare a;
    a
  in
  let uniform = collect ~multipliers:None in
  let reputation =
    collect
      ~multipliers:(Some (Probnative.Leader_reputation.timeout_multipliers ~spread:4. fleet))
  in
  let report label a =
    Printf.printf "  %-22s p50 %6.0f ms   p99 %6.0f ms   max %6.0f ms\n" label
      (percentile a 0.50) (percentile a 0.99)
      a.(Array.length a - 1)
  in
  report "oblivious election:" uniform;
  report "reputation-based:" reputation;
  print_endline
    "  (the stable node keeps the lease; client latency stops paying for the\n\
    \   flaky nodes' elections - the paper's tail-latency argument for\n\
    \   reliability-aware leader choice)"

(* ---------------------------------------------------------------- E20 *)

let e20_engine_ablation () =
  section "E20. Ablation: analysis engine choice (count DP / enumeration / MC)";
  (* Identical instance through all three engines: same numbers, very
     different costs; the Monte-Carlo path is the only one that extends
     to correlated faults. *)
  let fleet = Faultmodel.Fleet.mixed [ (8, 0.08); (7, 0.01) ] in
  let proto = Probcons.Raft_model.protocol (Probcons.Raft_model.default 15) in
  let timed strategy =
    let started = Unix.gettimeofday () in
    let r = Probcons.Analysis.run ~strategy proto fleet in
    (r, (Unix.gettimeofday () -. started) *. 1e3)
  in
  let dp, dp_ms = timed Probcons.Analysis.Count_dp in
  let enum, enum_ms = timed Probcons.Analysis.Enumeration in
  let mc, mc_ms = timed (Probcons.Analysis.Monte_carlo 200_000) in
  Printf.printf "  count DP:     S&L %-12s %8.2f ms\n" (pct dp.Probcons.Analysis.p_safe_live) dp_ms;
  Printf.printf "  enumeration:  S&L %-12s %8.2f ms  (2^15 configurations)\n"
    (pct enum.Probcons.Analysis.p_safe_live) enum_ms;
  (match mc.Probcons.Analysis.ci_safe_live with
  | Some (low, high) ->
      Printf.printf "  monte carlo:  S&L %-12s %8.2f ms  (CI [%.4f, %.4f])\n"
        (pct mc.Probcons.Analysis.p_safe_live) mc_ms low high
  | None -> ());
  Printf.printf "  DP = enumeration to %.1e; the DP is %.0fx faster at n=15\n"
    (Float.abs (dp.Probcons.Analysis.p_safe_live -. enum.Probcons.Analysis.p_safe_live))
    (enum_ms /. Float.max dp_ms 1e-3);
  (* And the timeline view enabled by fault curves. *)
  let aging =
    Faultmodel.Fleet.of_nodes
      (List.init 5 (fun id ->
           Faultmodel.Node.make ~id
             (Faultmodel.Fault_curve.Bathtub
                {
                  infant = Weibull { shape = 0.5; scale = 200_000. };
                  useful = Exponential { rate = 1.2e-6 };
                  wearout =
                    Shifted
                      { offset = 30_000.; curve = Weibull { shape = 3.; scale = 30_000. } };
                  t1 = 2_000.;
                  t2 = 30_000.;
                })))
  in
  print_string
    (Probcons.Report.render
       (Probcons.Sweep.timeline aging ~times:[ 1_000.; 8_766.; 26_298.; 43_830.; 52_596. ]))

(* ---------------------------------------------------------------- P1 *)

let p1_parallel_engine ~quick =
  section "P1. Parallel analysis engine: domains sweep, bit-stable results";
  (* Identity-dependent predicate (stake weights) over an all-Byzantine
     fleet: the 2^N binary enumeration hot path. --quick loads the
     smaller committed scenario so the smoke run stays fast. The full
     scenario exceeds the registry's interactive stake bound on
     purpose — the bench drives the engine directly, with the fleet and
     stakes still coming from the scenario file. *)
  let scenario_path, scen =
    load_scenario
      (if quick then "p1_enumeration_quick.json" else "p1_enumeration.json")
  in
  let n = Probcons.Scenario.size scen in
  let stakes =
    Array.of_list (Option.get (Probcons.Scenario.stakes scen))
  in
  let proto = Probcons.Stake_model.protocol (Probcons.Stake_model.make stakes) in
  let fleet =
    Probcons.Scenario.fleet
      ~byz_fraction:
        (Option.value (Probcons.Scenario.byz_fraction scen) ~default:1.0)
      scen
  in
  let timed ?strategy domains =
    let started = Unix.gettimeofday () in
    let r = Probcons.Analysis.run ?strategy ~domains proto fleet in
    (r, (Unix.gettimeofday () -. started) *. 1e9)
  in
  Printf.printf "  machine: %d core(s) recommended by the runtime; pool default %d lane(s)\n"
    (Domain.recommended_domain_count ())
    (Parallel.Pool.default ());
  let enum = Some Probcons.Analysis.Enumeration in
  let baseline, base_ns = timed ?strategy:enum 1 in
  Printf.printf "  enumeration 2^%d, domains=1: %8.0f ms  [%s]\n" n (base_ns /. 1e6)
    baseline.Probcons.Analysis.engine;
  record_row ~scenario:scenario_path ~kernel:"analysis/enumeration-2^N" ~n
    ~engine:baseline.Probcons.Analysis.engine ~domains:1 ~ns_per_run:base_ns ();
  List.iter
    (fun domains ->
      let r, ns = timed ?strategy:enum domains in
      let identical =
        Float.equal r.Probcons.Analysis.p_safe baseline.Probcons.Analysis.p_safe
        && Float.equal r.Probcons.Analysis.p_live baseline.Probcons.Analysis.p_live
        && Float.equal r.Probcons.Analysis.p_safe_live
             baseline.Probcons.Analysis.p_safe_live
      in
      Printf.printf
        "  enumeration 2^%d, domains=%d: %8.0f ms  %5.2fx  bit-identical: %b  [%s]\n" n
        domains (ns /. 1e6) (base_ns /. ns) identical r.Probcons.Analysis.engine;
      record_row ~scenario:scenario_path ~kernel:"analysis/enumeration-2^N" ~n
        ~engine:r.Probcons.Analysis.engine ~domains ~ns_per_run:ns ())
    [ 2; 4; 8 ];
  (* Monte Carlo: per-chunk streams from (seed, chunk) keep the estimate
     seed-reproducible whatever the lane count. *)
  let trials = if quick then 100_000 else 1_000_000 in
  let mc = Some (Probcons.Analysis.Monte_carlo trials) in
  let mc1, mc1_ns = timed ?strategy:mc 1 in
  let mc8, mc8_ns = timed ?strategy:mc 8 in
  Printf.printf
    "  monte-carlo %d trials, domains=1: %6.0f ms; domains=8: %6.0f ms  %5.2fx  identical: %b\n"
    trials (mc1_ns /. 1e6) (mc8_ns /. 1e6) (mc1_ns /. mc8_ns)
    (Float.equal mc1.Probcons.Analysis.p_safe_live mc8.Probcons.Analysis.p_safe_live);
  record_row ~scenario:scenario_path ~kernel:"analysis/monte-carlo" ~n
    ~engine:mc1.Probcons.Analysis.engine ~domains:1 ~ns_per_run:mc1_ns ();
  record_row ~scenario:scenario_path ~kernel:"analysis/monte-carlo" ~n
    ~engine:mc8.Probcons.Analysis.engine ~domains:8 ~ns_per_run:mc8_ns ();
  (* Sweep grids fan cells out over the same pool. *)
  let sweep_timed domains =
    let started = Unix.gettimeofday () in
    ignore
      (Probcons.Sweep.pbft_grid ~domains ~ns:[ 4; 5; 7; 8; 10 ]
         ~ps:[ 0.005; 0.01; 0.02; 0.04; 0.08 ] ()
        : Probcons.Report.t);
    (Unix.gettimeofday () -. started) *. 1e9
  in
  let sweep1 = sweep_timed 1 and sweep8 = sweep_timed 8 in
  Printf.printf "  pbft sweep 5x5 grid, domains=1: %6.1f ms; domains=8: %6.1f ms  %5.2fx\n"
    (sweep1 /. 1e6) (sweep8 /. 1e6) (sweep1 /. sweep8);
  record_row ~kernel:"sweep/pbft-grid-5x5" ~n:10 ~engine:"count-dp-cells" ~domains:1
    ~ns_per_run:sweep1 ();
  record_row ~kernel:"sweep/pbft-grid-5x5" ~n:10 ~engine:"count-dp-cells" ~domains:8
    ~ns_per_run:sweep8 ();
  print_endline
    "  (chunk boundaries and reduction order are fixed by the instance, so every\n\
    \   domain count produces bit-identical exact results; wall-clock gains track\n\
    \   the machine's core count - a single-core host shows parity, not speedup)"

(* ---------------------------------------------------------------- P2 *)

let p2_obs_overhead ~quick =
  section "P2. Observability overhead: instrumented hot loops, sink off vs on";
  (* The raft simulation exercises every instrumented layer (engine
     events, network sends, protocol counters). With the registry
     disabled each record site costs one atomic load and a branch; the
     off/on rows land in the --json artifact so CI can watch the gap. *)
  let scenario_path, scen = load_scenario "p2_sim.json" in
  let sim_n = Probcons.Scenario.size scen in
  let sim_seed = Option.value (Probcons.Scenario.seed scen) ~default:7 in
  let run_sim () =
    let cluster = Raft_sim.Raft_cluster.create ~n:sim_n ~seed:sim_seed () in
    Raft_sim.Raft_cluster.submit_workload cluster
      ~commands:(List.init 20 (fun i -> 100 + i))
      ~start:500. ~interval:100.;
    Raft_sim.Raft_cluster.run cluster ~until:60_000.
  in
  let reps = if quick then 25 else 200 in
  let prev = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  ignore (time_ns 5 run_sim);
  let off_ns = time_ns reps run_sim in
  Obs.Metrics.set_enabled true;
  ignore (time_ns 5 run_sim);
  let on_ns = time_ns reps run_sim in
  Obs.Metrics.set_enabled prev;
  Printf.printf "  raft n=%d sim, metrics off: %8.0f us/run\n" sim_n (off_ns /. 1e3);
  Printf.printf "  raft n=%d sim, metrics on:  %8.0f us/run  (%+.1f%%)\n" sim_n
    (on_ns /. 1e3)
    ((on_ns -. off_ns) /. off_ns *. 100.);
  record_row ~scenario:scenario_path ~kernel:"obs/sim-raft-metrics-off" ~n:sim_n
    ~engine:"dessim" ~domains:1 ~ns_per_run:off_ns ();
  record_row ~scenario:scenario_path ~kernel:"obs/sim-raft-metrics-on" ~n:sim_n
    ~engine:"dessim" ~domains:1 ~ns_per_run:on_ns ()

(* ---------------------------------------------------------------- P3 *)

let p3_service ~quick =
  section "P3. Query service: wire parsing, reply cache, socket round-trips";
  (* Hot-path costs of the serving layer, end to end: parse a request
     line, derive its cache key, hit the LRU, a full
     client->server->client round-trip over a Unix socket (cached, so
     the protocol overhead dominates, not the analysis), and finally
     closed-loop throughput over both framings. *)
  let scenario_path, scen = load_scenario "p3_service.json" in
  let svc_n = Probcons.Scenario.size scen in
  let query = Service.Wire.Analyze { scenario = scen } in
  let line = Service.Wire.encode_request { Service.Wire.id = 1; query } in
  let reps = if quick then 20_000 else 200_000 in
  let parse_ns = time_ns reps (fun () -> ignore (Service.Wire.parse_request line)) in
  Printf.printf "  wire parse+validate:      %8.0f ns/req\n" parse_ns;
  record_row ~scenario:scenario_path ~kernel:"service/wire-parse" ~n:svc_n
    ~engine:"json" ~domains:1 ~ns_per_run:parse_ns ();
  let key_ns = time_ns reps (fun () -> ignore (Service.Wire.canonical_key query)) in
  Printf.printf "  canonical cache key:      %8.0f ns/req\n" key_ns;
  record_row ~scenario:scenario_path ~kernel:"service/canonical-key" ~n:svc_n
    ~engine:"json" ~domains:1 ~ns_per_run:key_ns ();
  let cache = Service.Cache.create ~capacity:1024 () in
  let key = Service.Wire.canonical_key query in
  Service.Cache.add cache key "{\"payload\": true}";
  let hit_ns = time_ns reps (fun () -> ignore (Service.Cache.find cache key)) in
  Printf.printf "  LRU cache hit:            %8.0f ns/req\n" hit_ns;
  record_row ~kernel:"service/cache-hit" ~n:1 ~engine:"lru" ~domains:1
    ~ns_per_run:hit_ns ();
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "probcons-bench-%d.sock" (Unix.getpid ()))
  in
  (* The queue holds every pipelined request of the wire/3 row, so
     load shedding never shows up as loadgen errors. *)
  let server =
    Service.Server.start
      { Service.Server.default_config with
        Service.Server.socket_path = Some socket; workers = 2; queue_depth = 256 }
  in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop server)
    (fun () ->
      let c = Service.Client.connect ~retry_for:5. (Service.Client.Unix_path socket) in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          ignore (Service.Client.call_raw c line);
          let rt_reps = if quick then 2_000 else 20_000 in
          let rt_ns = time_ns rt_reps (fun () -> ignore (Service.Client.call_raw c line)) in
          Printf.printf "  unix-socket round-trip:   %8.0f ns/req (%.0f req/s, cached)\n"
            rt_ns (1e9 /. rt_ns);
          record_row ~scenario:scenario_path ~kernel:"service/roundtrip-unix"
            ~n:svc_n ~engine:"unix-socket" ~domains:2 ~ns_per_run:rt_ns ());
      (* wire/2 serial lines, then wire/3 pipelined binary frames: same
         server, pool, clients and window in --quick and full runs, so
         the gated wire/3-beats-wire/2 ratio means the same thing in
         CI as in the committed artifact. *)
      let clients = 8 in
      List.iter
        (fun (wire, pipeline) ->
          let r =
            Service.Loadgen.run ~clients ~distinct:8 ~duration:2.0 ~warmup:0.5
              ~pipeline ~wire ~target:(Service.Client.Unix_path socket) ()
          in
          Printf.printf
            "  loadgen wire/%d, pipeline %2d: %8.0f req/s  errors %d, \
             mismatches %d, %.2f s window\n"
            wire pipeline r.Service.Loadgen.throughput_rps
            r.Service.Loadgen.errors r.Service.Loadgen.mismatches
            r.Service.Loadgen.elapsed_seconds;
          record_row
            ~kernel:(Printf.sprintf "service/loadgen-wire%d" wire)
            ~n:clients
            ~engine:(Printf.sprintf "unix-socket-pipeline-%d" pipeline)
            ~domains:2
            ~ns_per_run:(1e9 /. r.Service.Loadgen.throughput_rps)
            ~extra:
              [
                ("errors", Obs.Json.Int r.Service.Loadgen.errors);
                ("mismatches", Obs.Json.Int r.Service.Loadgen.mismatches);
                ( "elapsed_seconds",
                  Obs.Json.number r.Service.Loadgen.elapsed_seconds );
              ]
            ())
        [ (2, 1); (3, 32) ])

(* ---------------------------------------------------------------- P4 *)

(* Per-node fault probabilities log-uniform over [lo, hi]: [0.001, 0.05]
   is the band a one-year horizon over datacenter AFR curves produces. *)
let log_uniform rng lo hi =
  exp (log lo +. (Prob.Rng.float rng *. (log hi -. log lo)))

let p4_fleet_engine ~quick =
  section "P4. Fleet engine: incremental update vs full Poisson-binomial recompute";
  (* Sustained O(n) single-node updates (drift-triggered refreshes that
     fire inside the window included) against from-scratch O(n^2)
     recomputes of the same distribution. Windows shrink with n so every
     size does comparable total work. *)
  List.iter
    (fun n ->
      let rng = Prob.Rng.of_pair 42 n in
      let engine =
        Prob.Incremental.create (Array.init n (fun _ -> log_uniform rng 0.001 0.05))
      in
      let ops = min 20_000 (max 50 (20_000_000 / n)) in
      (* Pre-drawn schedule, so the timed window is all engine. *)
      let targets = Array.init ops (fun _ -> Prob.Rng.int rng n) in
      let fresh = Array.init ops (fun _ -> log_uniform rng 0.001 0.05) in
      let refreshes = Prob.Incremental.refresh_count engine in
      let k = ref 0 in
      let inc_ns =
        time_ns ops (fun () ->
            Prob.Incremental.update engine targets.(!k) fresh.(!k);
            incr k)
      in
      let refreshes = Prob.Incremental.refresh_count engine - refreshes in
      let final = Prob.Incremental.probs engine in
      let sink = ref 0. in
      let full_ns =
        time_ns
          (if n >= 100_000 then 1 else if n >= 10_000 then 3 else 10)
          (fun () -> sink := !sink +. (Prob.Poisson_binomial.pmf final).(0))
      in
      ignore (Sys.opaque_identity !sink);
      Printf.printf
        "  n=%-7d incremental %12.0f ns/op (%d refreshes)  recompute %14.0f \
         ns/op  %7.1fx\n"
        n inc_ns refreshes full_ns (full_ns /. inc_ns);
      record_row ~kernel:"fleet/incremental-update" ~n ~engine:"incremental"
        ~domains:1 ~ns_per_run:inc_ns ();
      record_row ~kernel:"fleet/full-recompute" ~n ~engine:"poisson-binomial-dp"
        ~domains:1 ~ns_per_run:full_ns ())
    (if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ])

(* ---------------------------------------------------------------- P5 *)

let p5_horizon ~quick =
  section "P5. Horizon trajectories: incremental vs exact per round";
  (* A one-year, 24-round Raft trajectory over a mostly static fleet
     whose 1-in-16 minority runs Markov on/off processes: only those
     marginals move between rounds, so the incremental path updates a
     handful of factors where the exact kernel redoes the O(n^2) DP.
     The speedup only counts if both compute the same trajectory, so
     the incremental row carries its largest p_live deviation. *)
  let rounds = 24 in
  let times = Probcons.Analysis.horizon_times ~horizon:8766. ~rounds in
  List.iter
    (fun n ->
      let rng = Prob.Rng.of_pair 42 n in
      let process id =
        if id < max 1 (n / 16) then
          Faultmodel.Failure_process.Markov
            {
              fail_rate = 1. /. log_uniform rng 2_000. 20_000.;
              recover_rate = 1. /. log_uniform rng 100. 1_000.;
            }
        else Faultmodel.Failure_process.Static (log_uniform rng 0.001 0.05)
      in
      let fleet =
        Faultmodel.Fleet.of_nodes
          (List.init n (fun id ->
               Faultmodel.Node.make ~id
                 (Faultmodel.Failure_process.to_curve (process id))))
      in
      let proto = Probcons.Raft_model.(protocol (default n)) in
      let trajectory strategy =
        let started = Unix.gettimeofday () in
        let points =
          Probcons.Analysis.run_horizon ~strategy ~domains:1 ~times proto fleet
        in
        (points, (Unix.gettimeofday () -. started) *. 1e9 /. float_of_int rounds)
      in
      let exact, exact_ns = trajectory Probcons.Analysis.Count_dp in
      let incremental, inc_ns = trajectory Probcons.Analysis.Auto in
      let p_live (pt : Probcons.Analysis.horizon_point) =
        pt.Probcons.Analysis.result.Probcons.Analysis.p_live
      in
      let max_diff =
        List.fold_left2
          (fun acc a b -> Float.max acc (Float.abs (p_live a -. p_live b)))
          0. exact incremental
      in
      Printf.printf
        "  n=%-5d exact %10.3f ms/round  incremental %9.3f ms/round  %6.1fx  \
         max_diff %.2e\n"
        n (exact_ns /. 1e6) (inc_ns /. 1e6) (exact_ns /. inc_ns) max_diff;
      record_row ~kernel:"horizon/exact" ~n ~engine:"count-dp" ~domains:1
        ~ns_per_run:exact_ns ();
      record_row ~kernel:"horizon/incremental" ~n ~engine:"auto" ~domains:1
        ~ns_per_run:inc_ns
        ~extra:[ ("max_diff", Obs.Json.number max_diff) ]
        ())
    (if quick then [ 100; 400 ] else [ 100; 400; 1_000 ])

(* ------------------------------------------------- Bechamel kernels *)

let kernel_tests () =
  let open Bechamel in
  let raft9 = Probcons.Raft_model.protocol (Probcons.Raft_model.default 9) in
  let fleet9 = Faultmodel.Fleet.uniform ~n:9 ~p:0.02 () in
  let pbft7 = Probcons.Pbft_model.protocol (Probcons.Pbft_model.default 7) in
  let byz7 = Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:7 ~p:0.01 () in
  let fleet15 = Faultmodel.Fleet.mixed [ (8, 0.08); (7, 0.01) ] in
  let raft15 = Probcons.Raft_model.protocol (Probcons.Raft_model.default 15) in
  let probs100 = Array.make 100 0.1 in
  [
    Test.make ~name:"analysis/raft-n9-count-dp"
      (Staged.stage (fun () ->
           Probcons.Analysis.run ~strategy:Probcons.Analysis.Count_dp raft9 fleet9));
    Test.make ~name:"analysis/pbft-n7-count-dp"
      (Staged.stage (fun () ->
           Probcons.Analysis.run ~strategy:Probcons.Analysis.Count_dp pbft7 byz7));
    Test.make ~name:"analysis/raft-n15-enumeration"
      (Staged.stage (fun () ->
           Probcons.Analysis.run ~strategy:Probcons.Analysis.Enumeration raft15 fleet15));
    Test.make ~name:"prob/poisson-binomial-n100"
      (Staged.stage (fun () -> Prob.Poisson_binomial.pmf probs100));
    Test.make ~name:"markov/mttdl-n9"
      (Staged.stage (fun () ->
           Markov.Repair_model.mttdl
             { Markov.Repair_model.n = 9; quorum = 5; lambda = 1e-5; mu = 0.04 }));
    Test.make ~name:"sim/raft-n5-healthy-run"
      (Staged.stage (fun () ->
           let cluster = Raft_sim.Raft_cluster.create ~n:5 ~seed:1 () in
           Raft_sim.Raft_cluster.submit_workload cluster ~commands:[ 1; 2; 3 ]
             ~start:500. ~interval:100.;
           Raft_sim.Raft_cluster.run cluster ~until:5000.));
    Test.make ~name:"sim/pbft-n4-healthy-run"
      (Staged.stage (fun () ->
           let cluster = Pbft_sim.Pbft_cluster.create ~n:4 ~seed:1 () in
           Pbft_sim.Pbft_cluster.submit_workload cluster ~commands:[ 1; 2; 3 ]
             ~start:200. ~interval:150.;
           Pbft_sim.Pbft_cluster.run cluster ~until:5000.));
    Test.make ~name:"probnative/committee-search"
      (Staged.stage (fun () ->
           Probnative.Committee.reliability_ranked ~target:0.9999
             (Faultmodel.Fleet.mixed [ (4, 0.005); (10, 0.02); (6, 0.08) ])));
    Test.make ~name:"sim/benor-n5-split-run"
      (Staged.stage (fun () ->
           let cluster =
             Benor_sim.Benor_cluster.create ~seed:1 ~initial_values:[ 0; 1; 0; 1; 1 ] ()
           in
           Benor_sim.Benor_cluster.run cluster ~until:1e7));
    Test.make ~name:"sim/rabia-n5-3cmd-run"
      (Staged.stage (fun () ->
           let cluster = Rabia_sim.Rabia_cluster.create ~n:5 ~seed:1 () in
           Rabia_sim.Rabia_cluster.submit_workload cluster ~commands:[ 1; 2; 3 ]
             ~start:100. ~interval:50.;
           Rabia_sim.Rabia_cluster.run cluster ~until:10_000.));
  ]

let run_kernels () =
  section "Microbenchmarks (Bechamel, OLS estimate per run)";
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let tests = Test.make_grouped ~name:"kernels" ~fmt:"%s/%s" (kernel_tests ()) in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          let unit, value =
            if est > 1e9 then ("s ", est /. 1e9)
            else if est > 1e6 then ("ms", est /. 1e6)
            else if est > 1e3 then ("us", est /. 1e3)
            else ("ns", est)
          in
          Printf.printf "  %-40s %10.2f %s/run\n" name value unit
      | Some _ | None -> Printf.printf "  %-40s (no estimate)\n" name)
    (List.sort compare rows)

let json_target () =
  let rec go i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  (* Collect run telemetry for the whole reproduction; the final
     snapshot is embedded in the --json artifact. P2 toggles the flag
     locally to measure the disabled-path overhead. *)
  Obs.Metrics.set_enabled true;
  (* Fail fast on an unwritable --json target rather than after the
     full run, which would lose every measurement. *)
  (match json_target () with
  | Some path -> (
      try close_out (open_out path)
      with Sys_error msg ->
        Printf.eprintf "error: cannot write --json target: %s\n" msg;
        exit 1)
  | None -> ());
  table1 ();
  table2 ();
  e3_equivalence ();
  e4_vc_trigger ();
  e5_heterogeneous ();
  e6_tradeoff ();
  e7_large_cluster ();
  if quick then print_endline "\n(E8 simulation sweep skipped: --quick)"
  else e8_simulation ();
  e9_probnative ();
  e10_markov ();
  if quick then print_endline "(E11 Ben-Or sweep skipped: --quick)" else e11_benor ();
  e12_mixed_faults ();
  e13_bounds ();
  e14_end_to_end ();
  if quick then print_endline "(E15 planner execution skipped: --quick)"
  else e15_planner ();
  if quick then print_endline "(E16 reconfiguration execution skipped: --quick)"
  else e16_reconfig ();
  if quick then print_endline "(E17 failure-detector calibration skipped: --quick)"
  else e17_failure_detector ();
  e18_stake ();
  if quick then print_endline "(E19 tail-latency comparison skipped: --quick)"
  else e19_tail_latency ();
  e20_engine_ablation ();
  p1_parallel_engine ~quick;
  p2_obs_overhead ~quick;
  p3_service ~quick;
  p4_fleet_engine ~quick;
  p5_horizon ~quick;
  if quick then print_endline "(microbenchmarks skipped: --quick)" else run_kernels ();
  (match json_target () with Some path -> write_json path | None -> ());
  print_newline ()
