(* Seeded splitmix64 stream.  Every input the benchmark generates is drawn
   from one of these, so a seed names the same inputs on every host and
   OCaml version. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* [make seed tag] is an independent stream per (seed, purpose): changing
   how one workload draws never shifts another's inputs. *)
let make seed tag =
  let t = { state = Int64.of_int seed } in
  String.iter
    (fun c -> t.state <- Int64.logxor (next t) (Int64.of_int (Char.code c)))
    tag;
  t

(* Uniform in [lo, hi]. *)
let int t lo hi =
  if hi < lo then invalid_arg "Rng.int";
  lo + Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int (hi - lo + 1)))

(* Stratified draw: [strata] equal slices of [lo, hi]; [i] picks the slice
   and the stream picks a point inside it.  Drawing every slice once per
   block keeps a run's size mix (and so its cost) nearly seed-independent
   while the sizes themselves change with the seed. *)
let stratum t ~lo ~hi ~strata i =
  let width = hi - lo + 1 in
  let a = lo + (i mod strata * width / strata) in
  let b = lo + ((i mod strata + 1) * width / strata) - 1 in
  int t a (max a b)

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t 0 i in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a
