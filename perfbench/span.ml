(* In-memory tracing for the replay pass: a span per call into a layer
   (name, start, end, parent, the op it belongs to) and exact work counts
   recorded at the same boundaries.  Spans are kept in memory and
   summarized when the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for an op's root span *)
  op : int;  (** index of the replayed op *)
  t0 : int;
  t1 : int;
}

let enabled = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)
let counts : (string, int) Hashtbl.t = Hashtbl.create 64

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  current_op := -1;
  Hashtbl.reset counts

(* [with_ name f] runs [f] inside a span.  With tracing off it is [f ()]. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        stack := List.tl !stack;
        spans := { id; name; parent; op = !current_op; t0; t1 } :: !spans)
      f
  end

(* Counts are recorded whether or not spans are: they are exact and must
   agree between the traced and untraced replays. *)
let count name v =
  Hashtbl.replace counts name
    (v + Option.value ~default:0 (Hashtbl.find_opt counts name))

let counts_sorted () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare

let dur_ms s = float_of_int (s.t1 - s.t0) *. 1e-6

(* Inclusive time per span name, in ms. *)
let total_ms name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur_ms s else acc)
    0. !spans

(* Self time of every span: its duration minus its direct children's. *)
let self_ms () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      (s, dur_ms s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !spans
