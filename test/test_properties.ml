(* Cross-cutting property tests: invariants that must hold across the
   whole analysis stack, on randomized instances. *)

open Probcons

let random_fleet rng ~n ~max_p ~byz =
  Faultmodel.Fleet.of_nodes
    (List.init n (fun id ->
         Faultmodel.Node.make ~id
           ~byz_fraction:(if byz then Prob.Rng.float rng else 0.)
           (Faultmodel.Fault_curve.constant (Prob.Rng.float rng *. max_p))))

let prop_conjunction_bounded =
  QCheck.Test.make ~count:40 ~name:"P(safe&live) <= min(P(safe), P(live))"
    QCheck.(pair (int_range 3 9) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let proto =
        if n >= 4 && Prob.Rng.bool rng 0.5 then Pbft_model.protocol (Pbft_model.default n)
        else Raft_model.protocol (Raft_model.default n)
      in
      let r = Analysis.run proto fleet in
      r.Analysis.p_safe_live <= r.Analysis.p_safe +. 1e-12
      && r.Analysis.p_safe_live <= r.Analysis.p_live +. 1e-12)

let prop_raft_reliability_monotone_in_n =
  QCheck.Test.make ~count:40 ~name:"raft S&L grows with odd cluster size"
    QCheck.(pair (int_range 1 5) (float_bound_inclusive 0.3))
    (fun (half, p) ->
      QCheck.assume (p < 0.5);
      let n = (2 * half) + 1 in
      Raft_model.safe_and_live_uniform ~n:(n + 2) ~p
      >= Raft_model.safe_and_live_uniform ~n ~p -. 1e-12)

let prop_engines_agree_on_random_pbft_quorums =
  QCheck.Test.make ~count:25 ~name:"count DP = enumeration on random PBFT quorums"
    QCheck.(pair (int_range 4 7) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let q () = 1 + Prob.Rng.int rng n in
      let q_vc = q () in
      let params =
        Pbft_model.make ~n ~q_eq:(q ()) ~q_per:(q ()) ~q_vc
          ~q_vc_t:(1 + Prob.Rng.int rng q_vc)
      in
      let fleet = random_fleet rng ~n ~max_p:0.4 ~byz:true in
      let proto = Pbft_model.protocol params in
      let dp = Analysis.run ~strategy:Analysis.Count_dp proto fleet in
      let enum = Analysis.run ~strategy:Analysis.Enumeration proto fleet in
      Float.abs (dp.Analysis.p_safe -. enum.Analysis.p_safe) < 1e-9
      && Float.abs (dp.Analysis.p_live -. enum.Analysis.p_live) < 1e-9
      && Float.abs (dp.Analysis.p_safe_live -. enum.Analysis.p_safe_live) < 1e-9)

let prop_durability_ordering_random_fleets =
  QCheck.Test.make ~count:40 ~name:"durability: worst <= random <= best"
    QCheck.(pair (int_range 4 10) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.5 ~byz:false in
      let size = 1 + Prob.Rng.int rng (n - 1) in
      let d placement = Durability.durability fleet placement ~size in
      d Durability.Worst_case <= d Durability.Random +. 1e-12
      && d Durability.Random <= d Durability.Best_case +. 1e-12)

let prop_formation_dependence_helps =
  QCheck.Test.make ~count:40 ~name:"shared-live-set intersection >= independent"
    QCheck.(triple (int_range 6 25) (float_bound_inclusive 0.4) (int_range 0 1000))
    (fun (n, p, seed) ->
      let rng = Prob.Rng.create seed in
      let k1 = 1 + Prob.Rng.int rng (n / 2) in
      let k2 = 1 + Prob.Rng.int rng (n / 2) in
      Quorum.Formation.intersection_given_live ~n ~p ~k1 ~k2
      >= Quorum.Formation.intersection_independent ~n ~k1 ~k2 -. 1e-12)

let prop_equivalence_minimal =
  QCheck.Test.make ~count:30 ~name:"min_raft_cluster is minimal"
    QCheck.(pair (float_bound_inclusive 0.2) (int_range 1 6))
    (fun (p, nines) ->
      QCheck.assume (p > 0.001);
      let target = Prob.Nines.to_prob (float_of_int nines) in
      match Equivalence.min_raft_cluster ~target ~p () with
      | None -> true
      | Some e ->
          e.Equivalence.p_safe_live >= target
          && (e.Equivalence.n <= 2
             || Equivalence.raft_reliability ~n:(e.Equivalence.n - 2) ~p < target))

let prop_upright_safety_between_raft_and_pbft =
  QCheck.Test.make ~count:30 ~name:"safety: raft <= upright(r=1) <= pbft"
    QCheck.(pair (int_range 4 9) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.2 ~byz:true in
      let results = Upright_model.compare_with_classics fleet in
      let get name = (List.assoc name results).Analysis.p_safe in
      get "raft" <= get "upright" +. 1e-12 && get "upright" <= get "pbft" +. 1e-12)

let prop_uniform_stake_equals_count_threshold =
  QCheck.Test.make ~count:30 ~name:"uniform stake model = count threshold"
    QCheck.(pair (int_range 3 10) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let stake = Stake_model.protocol (Stake_model.make (Array.make n 1.)) in
      (* The equivalent count model: safe iff byz/n < 1/3, live iff
         correct/n >= 2/3. *)
      let count =
        {
          Protocol.name = "count-equivalent";
          n;
          safe =
            Protocol.count_predicate ~n (fun ~byz ~crashed:_ ->
                3 * byz < n);
          live =
            Protocol.count_predicate ~n (fun ~byz ~crashed ->
                3 * (n - byz - crashed) >= 2 * n);
        }
      in
      let a = Analysis.run stake fleet in
      let b = Analysis.run count fleet in
      Float.abs (a.Analysis.p_safe -. b.Analysis.p_safe) < 1e-9
      && Float.abs (a.Analysis.p_live -. b.Analysis.p_live) < 1e-9)

(* --- Parallel determinism --------------------------------------------

   The chunked engines must be *bit-identical* across domain counts:
   exact engines because chunk boundaries and reduction order are fixed,
   Monte Carlo because chunk RNG streams depend only on (seed, chunk). *)

let identical_numbers a b =
  Float.equal a.Analysis.p_safe b.Analysis.p_safe
  && Float.equal a.Analysis.p_live b.Analysis.p_live
  && Float.equal a.Analysis.p_safe_live b.Analysis.p_safe_live

let random_identity_protocol rng ~n =
  (* Stake weights make the predicates node-identity-dependent, which
     forces the enumeration engine (binary or ternary depending on the
     fleet's fault mix). *)
  Stake_model.protocol
    (Stake_model.make (Array.init n (fun _ -> 1. +. Prob.Rng.float rng)))

let prop_enumeration_bit_stable_across_domains =
  QCheck.Test.make ~count:20 ~name:"enumeration: domains:1 = domains:4 bit-identical"
    QCheck.(triple (int_range 3 8) bool (int_range 0 100_000))
    (fun (n, ternary, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet =
        (* byz:true with full byz_fraction mix -> ternary path; byz:false
           -> pure-crash binary path. *)
        random_fleet rng ~n ~max_p:0.3 ~byz:ternary
      in
      let proto = random_identity_protocol rng ~n in
      let seq = Analysis.run ~strategy:Analysis.Enumeration ~domains:1 proto fleet in
      let par = Analysis.run ~strategy:Analysis.Enumeration ~domains:4 proto fleet in
      identical_numbers seq par)

let prop_count_dp_bit_stable_across_domains =
  QCheck.Test.make ~count:15 ~name:"count-dp: domains:1 = domains:4 bit-identical"
    QCheck.(pair (int_range 3 9) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let proto =
        if n >= 4 && Prob.Rng.bool rng 0.5 then Pbft_model.protocol (Pbft_model.default n)
        else Raft_model.protocol (Raft_model.default n)
      in
      let seq = Analysis.run ~strategy:Analysis.Count_dp ~domains:1 proto fleet in
      let par = Analysis.run ~strategy:Analysis.Count_dp ~domains:4 proto fleet in
      identical_numbers seq par)

let prop_monte_carlo_seed_reproducible_across_domains =
  QCheck.Test.make ~count:10
    ~name:"monte carlo: same seed, domains:1 = domains:4 identical"
    QCheck.(triple (int_range 3 10) (int_range 0 100_000) (int_range 1 5))
    (fun (n, seed, k) ->
      let rng = Prob.Rng.create seed in
      let fleet = random_fleet rng ~n ~max_p:0.3 ~byz:true in
      let proto = random_identity_protocol rng ~n in
      let trials = k * 1000 in
      let seq =
        Analysis.run ~strategy:(Analysis.Monte_carlo trials) ~seed ~domains:1 proto fleet
      in
      let par =
        Analysis.run ~strategy:(Analysis.Monte_carlo trials) ~seed ~domains:4 proto fleet
      in
      identical_numbers seq par
      && seq.Analysis.ci_safe = par.Analysis.ci_safe
      && seq.Analysis.ci_live = par.Analysis.ci_live)

let prop_iter_subsets_range_partitions_space =
  QCheck.Test.make ~count:50 ~name:"iter_subsets_range partition covers the space"
    QCheck.(pair (int_range 1 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let total = (1 lsl n) in
      (* Random partition of [0, 2^n): 1-4 ordered cut points. *)
      let cuts =
        List.init (1 + Prob.Rng.int rng 4) (fun _ -> Prob.Rng.int rng (total + 1))
        |> List.sort_uniq compare
      in
      let bounds = (0 :: cuts) @ [ total ] in
      let from_ranges = ref [] in
      let rec walk = function
        | lo :: (hi :: _ as rest) ->
            Quorum.Subset.iter_subsets_range n ~lo ~hi (fun s ->
                from_ranges := s :: !from_ranges);
            walk rest
        | _ -> ()
      in
      walk bounds;
      let whole = ref [] in
      Quorum.Subset.iter_subsets n (fun s -> whole := s :: !whole);
      List.rev !from_ranges = List.rev !whole)

let prop_iter_ternary_range_partitions_space =
  QCheck.Test.make ~count:30 ~name:"iter_ternary_range partition covers the space"
    QCheck.(pair (int_range 1 6) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let total = Config.ternary_cardinality ~n in
      let mid = Prob.Rng.int rng (total + 1) in
      let collect f =
        let acc = ref [] in
        f (fun c -> acc := Array.to_list c :: !acc);
        List.rev !acc
      in
      let sliced =
        collect (fun f -> Config.iter_ternary_range ~n ~lo:0 ~hi:mid f)
        @ collect (fun f -> Config.iter_ternary_range ~n ~lo:mid ~hi:total f)
      in
      let whole = collect (fun f -> Config.iter_ternary ~n f) in
      sliced = whole)

(* --- Mask-native enumeration ------------------------------------------

   The engine evaluates predicates on (crashed, byz) bitmasks and takes
   probabilities from prefix-product tables. The reference is the loop
   it replaced: [Config.probability] times a predicate over [Config.t]
   arrays, Kahan-summed per chunk over the same [Chunked] partition.
   The results must be equal as floats, not merely close. *)

let reference_enumeration ~name ~safe ~live fleet =
  let crash_probs = Faultmodel.Fleet.crash_probs fleet
  and byz_probs = Faultmodel.Fleet.byz_probs fleet in
  let n = Array.length crash_probs in
  let all_zero a = Array.for_all (fun p -> p = 0.) a in
  let binary ~byzantine =
    ( 1 lsl n,
      "enumeration-binary",
      fun ~lo ~hi f ->
        Quorum.Subset.iter_subsets_range n ~lo ~hi (fun failed ->
            f (Config.of_failed_subset ~n ~byzantine failed)) )
  in
  let total, engine, iter_range =
    if all_zero byz_probs then binary ~byzantine:false
    else if all_zero crash_probs then binary ~byzantine:true
    else
      ( Config.ternary_cardinality ~n,
        "enumeration-ternary",
        fun ~lo ~hi f -> Config.iter_ternary_range ~n ~lo ~hi f )
  in
  let open Prob.Math_utils in
  let p_safe, p_live, p_both =
    Parallel.Chunked.sum3 ~domains:1 ~total (fun ~chunk:_ ~lo ~hi ->
        let s = ref kahan_zero and l = ref kahan_zero and b = ref kahan_zero in
        iter_range ~lo ~hi (fun config ->
            let p = Config.probability ~crash_probs ~byz_probs config in
            if p > 0. then begin
              let safe = safe config and live = live config in
              if safe then s := kahan_add !s p;
              if live then l := kahan_add !l p;
              if safe && live then b := kahan_add !b p
            end);
        (kahan_total !s, kahan_total !l, kahan_total !b))
  in
  {
    Analysis.protocol = name;
    p_safe = clamp_prob p_safe;
    p_live = clamp_prob p_live;
    p_safe_live = clamp_prob p_both;
    engine;
    ci_safe = None;
    ci_live = None;
    ci_safe_live = None;
  }

(* The configuration-array predicates the mask forms replaced. *)
let reference_stake (params : Stake_model.params) =
  let total = Prob.Math_utils.kahan_sum params.Stake_model.stakes in
  let stake_of status config =
    let acc = ref 0. in
    Array.iteri
      (fun u st -> if st = status then acc := !acc +. params.Stake_model.stakes.(u))
      config;
    !acc
  in
  ( (fun c -> stake_of Config.Byzantine c /. total < params.Stake_model.byz_stake_bound),
    fun c -> stake_of Config.Correct c /. total >= params.Stake_model.live_stake_bound )

let reference_committee members =
  let quorum = (List.length members / 2) + 1 in
  ( (fun _ -> true),
    fun c ->
      List.length (List.filter (fun id -> c.(id) = Config.Correct) members) >= quorum )

let reference_counts (proto : Protocol.t) =
  let of_count (pred : Protocol.predicate) =
    let f = Option.get pred.Protocol.by_count in
    fun c -> f ~byz:(Config.num_byzantine c) ~crashed:(Config.num_crashed c)
  in
  (of_count proto.Protocol.safe, of_count proto.Protocol.live)

let prop_enumeration_matches_config_reference =
  QCheck.Test.make ~count:60
    ~name:"enumeration = Config.probability reference, bit-identical"
    QCheck.(quad (int_range 1 12) (int_range 0 2) (int_range 0 2) (int_range 0 100_000))
    (fun (n, kind, model, seed) ->
      let rng = Prob.Rng.create seed in
      (* kind 0: crash-only (binary), 1: Byzantine-only (binary),
         2: both (ternary, kept to 3^8 configurations). *)
      let n = if kind = 2 then min n 8 else n in
      let fleet =
        Faultmodel.Fleet.of_nodes
          (List.init n (fun id ->
               Faultmodel.Node.make ~id
                 ~byz_fraction:
                   (match kind with 0 -> 0. | 1 -> 1. | _ -> Prob.Rng.float rng)
                 (Faultmodel.Fault_curve.constant (Prob.Rng.float rng *. 0.5))))
      in
      let proto, (safe, live) =
        match model with
        | 0 ->
            let params =
              Stake_model.make (Array.init n (fun _ -> 1. +. (9. *. Prob.Rng.float rng)))
            in
            (Stake_model.protocol params, reference_stake params)
        | 1 ->
            let c =
              Probnative.Committee.random_committee rng
                ~size:(1 + Prob.Rng.int rng n) fleet
            in
            ( Probnative.Weighted_protocols.committee_protocol ~n c,
              reference_committee c.Probnative.Committee.members )
        | _ ->
            let proto =
              if n >= 4 && Prob.Rng.bool rng 0.5 then
                Pbft_model.protocol (Pbft_model.default n)
              else Raft_model.protocol (Raft_model.default n)
            in
            (proto, reference_counts proto)
      in
      let expected = reference_enumeration ~name:proto.Protocol.name ~safe ~live fleet in
      let matches domains =
        let r = Analysis.run ~strategy:Analysis.Enumeration ~domains proto fleet in
        let base = expected.Analysis.engine in
        (r.Analysis.engine = base
        || String.starts_with ~prefix:(base ^ "/") r.Analysis.engine)
        && { r with Analysis.engine = base } = expected
      in
      matches 1 && matches 3)

(* Above 16 nodes the binary kernel multiplies the factors of the nodes
   beyond the table onto each lookup; the property above stays within
   the table, so check one wider instance of each failure kind. *)
let test_enumeration_beyond_table_matches_reference () =
  let n = 18 in
  let rng = Prob.Rng.create 18 in
  let fleet ~byz_fraction =
    Faultmodel.Fleet.of_nodes
      (List.init n (fun id ->
           Faultmodel.Node.make ~id ~byz_fraction
             (Faultmodel.Fault_curve.constant (0.3 *. Prob.Rng.float rng))))
  in
  let check name proto (safe, live) fleet =
    let expected = reference_enumeration ~name:proto.Protocol.name ~safe ~live fleet in
    let r = Analysis.run ~strategy:Analysis.Enumeration ~domains:1 proto fleet in
    if r <> expected then Alcotest.failf "%s differs from the reference" name
  in
  let params = Stake_model.make (Array.init n (fun _ -> 1. +. (9. *. Prob.Rng.float rng))) in
  check "stake, Byzantine" (Stake_model.protocol params) (reference_stake params)
    (fleet ~byz_fraction:1.);
  let raft = Raft_model.protocol (Raft_model.default n) in
  check "raft, crash" raft (reference_counts raft) (fleet ~byz_fraction:0.)

let prop_combinators_mask_matches_full =
  QCheck.Test.make ~count:300
    ~name:"pred_and/or/not: mask and full agree with the operands"
    QCheck.(pair (int_range 1 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Prob.Rng.create seed in
      let tb = Prob.Rng.int rng (n + 1) and tc = Prob.Rng.int rng (n + 1) in
      let a = Protocol.count_predicate ~n (fun ~byz ~crashed -> byz <= tb && crashed <= tc) in
      let a' = Protocol.count_predicate ~n (fun ~byz ~crashed -> byz + crashed >= tc) in
      let b =
        (Stake_model.protocol
           (Stake_model.make (Array.init n (fun _ -> 1. +. Prob.Rng.float rng))))
          .Protocol.live
      in
      let config =
        Array.init n (fun _ ->
            match Prob.Rng.int rng 3 with
            | 0 -> Config.Correct
            | 1 -> Config.Crashed
            | _ -> Config.Byzantine)
      in
      let crashed = Config.crashed_set config and byz = Config.byzantine_set config in
      let nb = Config.num_byzantine config and nc = Config.num_crashed config in
      let agrees (p : Protocol.predicate) expected =
        p.Protocol.mask ~crashed ~byz = expected
        && p.Protocol.full config = expected
        &&
        match p.Protocol.by_count with
        | Some f -> f ~byz:nb ~crashed:nc = expected
        | None -> true
      in
      let fa = nb <= tb && nc <= tc and fa' = nb + nc >= tc in
      let fb = b.Protocol.full config in
      agrees a fa && agrees a' fa'
      && agrees (Protocol.pred_and a b) (fa && fb)
      && agrees (Protocol.pred_or a b) (fa || fb)
      && agrees (Protocol.pred_and a a') (fa && fa')
      && agrees (Protocol.pred_or a a') (fa || fa')
      && agrees (Protocol.pred_not a) (not fa)
      && agrees (Protocol.pred_not b) (not fb)
      && (Protocol.pred_and a a').Protocol.by_count <> None
      && (Protocol.pred_or a b).Protocol.by_count = None)

(* Per configuration the enumeration kernels allocate nothing: what a
   run allocates on the minor heap (chunk bookkeeping, metrics, the
   result) must stay far below one word per configuration. *)
let test_enumeration_allocation_guard () =
  let check name ~configs proto fleet =
    let run () =
      ignore (Analysis.run ~strategy:Analysis.Enumeration ~domains:1 proto fleet)
    in
    run ();
    let before = Gc.minor_words () in
    run ();
    let words = Gc.minor_words () -. before in
    if words >= float_of_int configs /. 16. then
      Alcotest.failf "%s: %.0f minor words for %d configurations" name words configs
  in
  let stakes = Array.init 16 (fun u -> 1. +. float_of_int u) in
  check "stake, Byzantine binary" ~configs:(1 lsl 16)
    (Stake_model.protocol (Stake_model.make stakes))
    (Faultmodel.Fleet.uniform ~byz_fraction:1.0 ~n:16 ~p:0.02 ());
  check "raft, crash binary" ~configs:(1 lsl 16)
    (Raft_model.protocol (Raft_model.default 16))
    (Faultmodel.Fleet.uniform ~n:16 ~p:0.02 ());
  check "stake, ternary" ~configs:177_147
    (Stake_model.protocol (Stake_model.make (Array.sub stakes 0 11)))
    (Faultmodel.Fleet.uniform ~byz_fraction:0.3 ~n:11 ~p:0.02 ())

let prop_nines_formatting_sane =
  QCheck.Test.make ~count:100 ~name:"percent_string stays within [0%,100%]"
    QCheck.(float_bound_inclusive 1.)
    (fun p ->
      let s = Prob.Nines.percent_string p in
      String.length s > 0
      && s.[String.length s - 1] = '%'
      &&
      match Prob.Nines.parse_percent s with
      | Some q -> q >= 0. && q <= 1.
      | None -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conjunction_bounded;
    QCheck_alcotest.to_alcotest prop_raft_reliability_monotone_in_n;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_random_pbft_quorums;
    QCheck_alcotest.to_alcotest prop_durability_ordering_random_fleets;
    QCheck_alcotest.to_alcotest prop_formation_dependence_helps;
    QCheck_alcotest.to_alcotest prop_equivalence_minimal;
    QCheck_alcotest.to_alcotest prop_upright_safety_between_raft_and_pbft;
    QCheck_alcotest.to_alcotest prop_uniform_stake_equals_count_threshold;
    QCheck_alcotest.to_alcotest prop_enumeration_bit_stable_across_domains;
    QCheck_alcotest.to_alcotest prop_count_dp_bit_stable_across_domains;
    QCheck_alcotest.to_alcotest prop_monte_carlo_seed_reproducible_across_domains;
    QCheck_alcotest.to_alcotest prop_iter_subsets_range_partitions_space;
    QCheck_alcotest.to_alcotest prop_iter_ternary_range_partitions_space;
    QCheck_alcotest.to_alcotest prop_nines_formatting_sane;
    QCheck_alcotest.to_alcotest prop_enumeration_matches_config_reference;
    QCheck_alcotest.to_alcotest prop_combinators_mask_matches_full;
    Alcotest.test_case "enumeration beyond the table = reference" `Quick
      test_enumeration_beyond_table_matches_reference;
    Alcotest.test_case "enumeration allocates nothing per configuration" `Quick
      test_enumeration_allocation_guard;
  ]
