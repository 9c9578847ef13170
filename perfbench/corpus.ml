(* Seeded input generators. The workload seed picks every parameter;
   the program only ever sees the encoded requests. Each generator
   draws from its own [Prob.Rng.of_pair] stream per item, so item [i]
   is the same whatever else was generated. *)

module W = Service.Wire
module S = Probcons.Scenario

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "corpus %s: %s" what msg)

(* Uniform float in [lo, hi). *)
let between rng lo hi = lo +. ((hi -. lo) *. Prob.Rng.float rng)
let int_between rng lo hi = lo + Prob.Rng.int rng (hi - lo + 1)

(* --- analyze-miss ------------------------------------------------------

   Distinct compute queries that always miss the reply cache: every
   query carries at least one parameter drawn from a continuous range
   (or a seed unique to its index), so no two canonical keys coincide.
   The class of query [i] is fixed by [i mod 20], so every run holds
   the same proportions: 16/20 exact-enumeration models (stake-weighted
   and uncertainty-weighted committees), 2/20 fleet-controller runs and
   2/20 horizon trajectories over Markov failure processes. *)

(* Sizes 11..15 (2^11..2^15 configurations, a few milliseconds each on
   one core), assigned by position rather than drawn, so every run holds
   exactly the same size mix and only the parameters vary with the
   seed. Consecutive queries get different sizes and every class meets
   every size once per 200 queries, so any stretch of the run sees the
   same mix. Half the enumeration queries are n = 12, which puts the
   median latency inside that cluster rather than in a gap between two
   sizes, where it would jump with small speed changes. *)
let enum_sizes = [| 11; 11; 12; 12; 12; 12; 12; 13; 14; 15 |]
let enum_nodes i = enum_sizes.((i + (i / 20)) mod Array.length enum_sizes)

let analyze_query ~seed i =
  let rng = Prob.Rng.of_pair seed (2 * i) in
  match i mod 20 with
  | c when c < 8 ->
      let n = enum_nodes i in
      let p = between rng 0.002 0.05 in
      let stakes =
        List.init n (fun _ -> Float.round (between rng 1. 10. *. 1000.) /. 1000.)
      in
      W.Analyze
        { scenario = ok_or_fail "stake" (S.make ~stakes ~protocol:"stake" ~mix:[ (n, p) ] ()) }
  | c when c < 16 ->
      let n = enum_nodes i in
      let a = int_between rng 2 (n - 2) in
      let mix = [ (a, between rng 0.001 0.01); (n - a, between rng 0.01 0.05) ] in
      let quorums = [ ("target_nines", int_between rng 2 3) ] in
      W.Analyze
        {
          scenario =
            ok_or_fail "committee"
              (S.make ~quorums ~protocol:"committee-weighted" ~mix ());
        }
  | c when c < 18 ->
      let params =
        {
          W.nodes = int_between rng 5 9;
          ticks = int_between rng 4 8;
          seed = (seed * 1_000_003) + i;
          quorum = None;
          target_nines = 3.;
          dynamic = Prob.Rng.bool rng 0.5;
        }
      in
      if c = 16 then W.Fleet_recommend params else W.Fleet_ingest params
  | _ ->
      let n = 5 + (2 * Prob.Rng.int rng 3) in
      let processes =
        List.init n (fun _ ->
            ok_or_fail "process"
              (Faultmodel.Failure_process.markov
                 ~fail_rate:(between rng 0.2 2.)
                 ~recover_rate:(between rng 1. 8.)))
      in
      let scenario =
        ok_or_fail "horizon"
          (S.make ~processes ~horizon:(between rng 1. 20.)
             ~rounds:(int_between rng 8 24) ~protocol:"raft"
             ~mix:[ (n, between rng 0.001 0.05) ]
             ())
      in
      W.Analyze { scenario }

(* --- serve-zipf --------------------------------------------------------

   A key space of [zipf_keys] cheap queries — count-DP and closed-form
   models, no enumeration — 16x the server's 1024-entry reply cache.
   Key [k]'s kind is [k mod 8]. *)

let zipf_keys = 16384

let groups rng =
  [ (int_between rng 2 8, between rng 0.001 0.02); (int_between rng 2 8, between rng 0.02 0.1) ]

let zipf_query ~seed k =
  let rng = Prob.Rng.of_pair seed ((2 * k) + 1) in
  let scenario protocol n =
    W.Analyze
      {
        scenario =
          ok_or_fail protocol (S.make ~protocol ~mix:[ (n, between rng 0.001 0.05) ] ());
      }
  in
  match k mod 8 with
  | 0 -> scenario "raft" (int_between rng 3 41)
  | 1 -> scenario "pbft" (int_between rng 4 31)
  | 2 -> scenario "upright" (int_between rng 4 31)
  | 3 -> scenario "benor" (int_between rng 3 31)
  | 4 -> scenario "quorum-availability" (int_between rng 3 31)
  | 5 ->
      W.Markov
        {
          n = int_between rng 3 9;
          quorum = None;
          afr = between rng 0.01 0.2;
          mttr_hours = between rng 1. 48.;
        }
  | 6 -> W.Committee { target_nines = between rng 2. 5.; groups = groups rng }
  | _ -> W.Quorum_size { target_live_nines = between rng 2. 5.; groups = groups rng }

(* Zipf(1) popularity over the key space, with the rank-to-key mapping
   shuffled by the seed so the hot keys differ between seeds. *)
type zipf = { cdf : float array; key_of_rank : int array; rng : Prob.Rng.t }

let zipf ~seed =
  let cdf = Array.make zipf_keys 0. in
  let acc = ref 0. in
  for r = 0 to zipf_keys - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  Array.iteri (fun r c -> cdf.(r) <- c /. !acc) cdf;
  let key_of_rank = Array.init zipf_keys Fun.id in
  Prob.Rng.shuffle (Prob.Rng.of_pair seed 0x5a17) key_of_rank;
  { cdf; key_of_rank; rng = Prob.Rng.of_pair seed 0x2193 }

let zipf_next z =
  let u = Prob.Rng.float z.rng in
  let lo = ref 0 and hi = ref (zipf_keys - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  z.key_of_rank.(!lo)

(* --- replicated-rw ---------------------------------------------------- *)

(* The scenario client [writer] stores in its [j]-th put. *)
let put_scenario ~seed ~writer j =
  let rng = Prob.Rng.of_pair (seed + 1 + writer) (j + 1) in
  S.uniform ~protocol:"raft" ~n:(3 + (2 * Prob.Rng.int rng 4)) ~p:(between rng 0.001 0.05) ()

let put_name ~writer j = Printf.sprintf "w%d-%d" writer j
