let binomial_pmf ~n ~p k =
  if k < 0 || k > n then 0.
  else if p <= 0. then (if k = 0 then 1. else 0.)
  else if p >= 1. then (if k = n then 1. else 0.)
  else
    exp
      (Math_utils.log_choose n k
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. Float.log1p (-.p)))

let binomial_cdf ~n ~p k =
  if k < 0 then 0.
  else if k >= n then 1.
  else begin
    (* Sum the side with fewer terms, then complement if needed. *)
    if k <= n / 2 then begin
      let acc = ref 0. in
      for i = 0 to k do
        acc := !acc +. binomial_pmf ~n ~p i
      done;
      Math_utils.clamp_prob !acc
    end
    else begin
      let acc = ref 0. in
      for i = k + 1 to n do
        acc := !acc +. binomial_pmf ~n ~p i
      done;
      Math_utils.clamp_prob (1. -. !acc)
    end
  end

let binomial_tail_ge ~n ~p k =
  if k <= 0 then 1. else if k > n then 0. else begin
    if n - k <= n / 2 then begin
      let acc = ref 0. in
      for i = k to n do
        acc := !acc +. binomial_pmf ~n ~p i
      done;
      Math_utils.clamp_prob !acc
    end
    else Math_utils.clamp_prob (1. -. binomial_cdf ~n ~p (k - 1))
  end

let binomial_sample rng ~n ~p =
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng p then incr count
  done;
  !count

let exponential_survival ~rate t = exp (-.rate *. t)

let weibull_survival ~shape ~scale t =
  if t <= 0. then 1. else exp (-.((t /. scale) ** shape))

let weibull_hazard ~shape ~scale t =
  if t <= 0. then (if shape < 1. then infinity else if shape = 1. then 1. /. scale else 0.)
  else shape /. scale *. ((t /. scale) ** (shape -. 1.))

let weibull_sample rng ~shape ~scale =
  let u = Rng.float rng in
  scale *. ((-.Float.log1p (-.u)) ** (1. /. shape))

let exponential_fit samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Distribution.exponential_fit: empty sample";
  let mean = Math_utils.kahan_sum samples /. float_of_int n in
  if mean <= 0. then invalid_arg "Distribution.exponential_fit: nonpositive mean";
  1. /. mean

(* Right-censored profile-likelihood MLE for Weibull shape k. With d
   observed failures t_i and censored survival times c_j, the profile
   score (all sums over failures AND censored unless noted) is
     g(k) = d/k + sum_{failures} ln t_i - d * sum(s^k ln s) / sum(s^k)
   with root found by bisection (g decreases in k), after which
     scale^k = sum(s^k) / d.
   The uncensored case reduces to the textbook equation.

   Telemetry censors every survivor at the same window, so the kernel
   collapses consecutive equal censor times into runs and computes one
   [c ** k] per run per step. It still adds that term once per unit, in
   array order: a multiply by the run length would round differently.
   Logs are hoisted out of the bisection and the sums live in
   loop-local refs (unboxed), so each step allocates nothing per
   sample. The result is bit-identical to summing sample by sample. *)
let weibull_fit_censored ~failures ~censored =
  let d = Array.length failures in
  if d < 2 then invalid_arg "Distribution.weibull_fit: need >= 2 samples";
  Array.iter
    (fun x -> if x <= 0. then invalid_arg "Distribution.weibull_fit: nonpositive sample")
    failures;
  Array.iter
    (fun x ->
      if x <= 0. then invalid_arg "Distribution.weibull_fit: nonpositive censor time")
    censored;
  let df = float_of_int d in
  let log_failures = Array.map log failures in
  let sum_log_failures = Math_utils.kahan_sum log_failures in
  (* Runs of equal censor times; [=] is bit equality on positive
     floats, and a NaN (never equal) stays a run of its own. *)
  let nc = Array.length censored in
  let runs = ref (min nc 1) in
  for i = 1 to nc - 1 do
    if censored.(i) <> censored.(i - 1) then incr runs
  done;
  let runs = !runs in
  let run_value = Array.make runs 0. and run_count = Array.make runs 0 in
  let r = ref (-1) in
  for i = 0 to nc - 1 do
    if i = 0 || censored.(i) <> censored.(i - 1) then begin
      incr r;
      run_value.(!r) <- censored.(i)
    end;
    run_count.(!r) <- run_count.(!r) + 1
  done;
  let run_log = Array.map log run_value in
  let g k =
    let sxk = ref 0. and sxkl = ref 0. in
    for i = 0 to d - 1 do
      let xk = failures.(i) ** k in
      sxk := !sxk +. xk;
      sxkl := !sxkl +. (xk *. log_failures.(i))
    done;
    for j = 0 to runs - 1 do
      let xk = run_value.(j) ** k in
      let xkl = xk *. run_log.(j) in
      for _ = 1 to run_count.(j) do
        sxk := !sxk +. xk;
        sxkl := !sxkl +. xkl
      done
    done;
    (df /. k) +. sum_log_failures -. (df *. !sxkl /. !sxk)
  in
  (* g is decreasing in k, positive for k -> 0+. *)
  let lo = ref 1e-3 and hi = ref 1. in
  while g !hi > 0. && !hi < 1e4 do
    hi := !hi *. 2.
  done;
  (* Up to 80 halvings; a step that leaves (lo, hi, k) unchanged is a
     fixed point (g is re-evaluated at the same k), so stop there. *)
  let k = ref ((!lo +. !hi) /. 2.) in
  let step = ref 0 and settled = ref false in
  while !step < 80 && not !settled do
    let lo0 = !lo and hi0 = !hi and k0 = !k in
    if g !k > 0. then lo := !k else hi := !k;
    k := (!lo +. !hi) /. 2.;
    settled := !lo = lo0 && !hi = hi0 && !k = k0;
    incr step
  done;
  let shape = !k in
  (* Failures and censored summed separately from 0, then added: the
     order the result's bits depend on. *)
  let sf = ref 0. and sc = ref 0. in
  for i = 0 to d - 1 do
    sf := !sf +. (failures.(i) ** shape)
  done;
  for j = 0 to runs - 1 do
    let xk = run_value.(j) ** shape in
    for _ = 1 to run_count.(j) do
      sc := !sc +. xk
    done
  done;
  let scale = ((!sf +. !sc) /. df) ** (1. /. shape) in
  (shape, scale)

let weibull_fit samples = weibull_fit_censored ~failures:samples ~censored:[||]
