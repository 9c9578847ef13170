(* In-memory spans around the benchmark's own calls into each layer.

   A span has a name ("layer.operation"), start, end, parent span and
   request id. Spans are kept in flat arrays while the replay runs and
   written out once at the end; a layer's self time is its spans'
   durations minus the part covered by their child spans. A disabled
   recorder runs the thunk and records nothing. *)

type t = {
  enabled : bool;
  mutable names : string array;
  mutable starts : float array;
  mutable ends : float array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable n : int;
  mutable current : int;  (** Innermost open span, -1 at top level. *)
}

let create ~enabled =
  {
    enabled;
    names = Array.make 4096 "";
    starts = Array.make 4096 0.;
    ends = Array.make 4096 0.;
    parents = Array.make 4096 (-1);
    reqs = Array.make 4096 0;
    n = 0;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0.;
  t.ends <- ext t.ends 0.;
  t.parents <- ext t.parents (-1);
  t.reqs <- ext t.reqs 0

let with_span t ?(req = -1) name f =
  if not t.enabled then f ()
  else begin
    if t.n = Array.length t.names then grow t;
    let i = t.n in
    t.n <- i + 1;
    let parent = t.current in
    t.names.(i) <- name;
    t.parents.(i) <- parent;
    t.reqs.(i) <- (if req >= 0 || parent < 0 then req else t.reqs.(parent));
    t.current <- i;
    t.starts.(i) <- Unix.gettimeofday ();
    let finish () =
      t.ends.(i) <- Unix.gettimeofday ();
      t.current <- parent
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let count t = t.n

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self seconds per span. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.ends.(i) -. t.starts.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (t.ends.(i) -. t.starts.(i))
  done;
  self

(* Total self seconds and span count per layer. *)
let layer_totals t =
  let self = self_times t in
  let by_layer = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let k = layer t.names.(i) in
    let s, c = Option.value (Hashtbl.find_opt by_layer k) ~default:(0., 0) in
    Hashtbl.replace by_layer k (s +. self.(i), c + 1)
  done;
  by_layer

(* Every duration of spans called [name], in seconds. *)
let durations t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.names.(i) = name then acc := (t.ends.(i) -. t.starts.(i)) :: !acc
  done;
  Array.of_list !acc

(* Write at most [limit] spans as jsonl, times in microseconds from the
   first span. *)
let write t ~path ~limit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = if t.n > 0 then t.starts.(0) else 0. in
      for i = 0 to min t.n limit - 1 do
        Printf.fprintf oc
          "{\"span\": %d, \"name\": %S, \"start_us\": %.1f, \"end_us\": %.1f, \
           \"parent\": %d, \"req\": %d}\n"
          i t.names.(i)
          (1e6 *. (t.starts.(i) -. t0))
          (1e6 *. (t.ends.(i) -. t0))
          t.parents.(i) t.reqs.(i)
      done)
