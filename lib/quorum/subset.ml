type t = int

let empty = 0
let full n = (1 lsl n) - 1
let mem s u = s land (1 lsl u) <> 0
let add s u = s lor (1 lsl u)
let remove s u = s land lnot (1 lsl u)

let cardinal s =
  (* SWAR popcount over the 62 bits a non-negative [int] uses: pair,
     nibble and byte sums, then a multiply gathers the byte sums into
     bits 56..62. *)
  let s = s - ((s lsr 1) land 0x1555_5555_5555_5555) in
  let s = (s land 0x3333_3333_3333_3333) + ((s lsr 2) land 0x3333_3333_3333_3333) in
  let s = (s + (s lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (s * 0x0101_0101_0101_0101) lsr 56

let inter = ( land )
let union = ( lor )
let diff a b = a land lnot b
let subset a b = a land lnot b = 0
let of_list l = List.fold_left add empty l

let to_list s =
  let rec go u acc = if 1 lsl u > s then List.rev acc else go (u + 1) (if mem s u then u :: acc else acc) in
  go 0 []

let complement n s = full n land lnot s

let max_universe = Sys.int_size - 1
let max_enumeration = 24

let iter_subsets n f =
  if n < 0 || n > max_enumeration then
    invalid_arg "Subset.iter_subsets: universe too large for enumeration";
  for s = 0 to full n do
    f s
  done

let iter_subsets_range n ~lo ~hi f =
  if n < 0 || n > max_enumeration then
    invalid_arg "Subset.iter_subsets_range: universe too large for enumeration";
  if lo < 0 || hi > full n + 1 || lo > hi then
    invalid_arg "Subset.iter_subsets_range: range outside [0, 2^n]";
  for s = lo to hi - 1 do
    f s
  done

let iter_ksubsets n k f =
  if k < 0 || k > n then ()
  else if k = 0 then f 0
  else begin
    (* Gosper's hack: next subset with the same popcount. *)
    let limit = 1 lsl n in
    let s = ref (full k) in
    while !s < limit do
      f !s;
      let c = !s land - !s in
      let r = !s + c in
      s := (((r lxor !s) lsr 2) / c) lor r
    done
  end

let fold_subsets n ~init ~f =
  let acc = ref init in
  iter_subsets n (fun s -> acc := f !acc s);
  !acc

let table_bits = 16

let prefix_table op ~inside ~outside ~bits =
  if bits < 0 || bits > table_bits || bits > Array.length inside
     || bits > Array.length outside
  then invalid_arg "Subset.prefix_table: bits out of range";
  let table = Array.make (1 lsl bits) (match op with `Product -> 1. | `Sum -> 0.) in
  (* After step [u], entries [0, 2^(u+1)) hold the fold over elements
     [0..u]: each entry [m] of the previous step extends to [m] (u
     outside) and [m + 2^u] (u inside). *)
  for u = 0 to bits - 1 do
    let half = 1 lsl u in
    for m = 0 to half - 1 do
      let acc = table.(m) in
      match op with
      | `Product ->
          table.(m + half) <- acc *. inside.(u);
          table.(m) <- acc *. outside.(u)
      | `Sum ->
          table.(m + half) <- acc +. inside.(u);
          table.(m) <- acc +. outside.(u)
    done
  done;
  table

let pp fmt s =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (to_list s)))
