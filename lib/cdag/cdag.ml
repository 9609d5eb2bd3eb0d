module Program = Iolb_ir.Program
module Interner = Iolb_ir.Interner
module Budget = Iolb_util.Budget

type kind =
  | Input of string * int array
  | Compute of string * int array

type t = {
  kinds : kind array;
  preds : int array array;
  succs : int array array;
  preds_off : int array; (* CSR mirror of [preds]: offsets, length n+1 *)
  preds_flat : int array;
  succs_off : int array;
  succs_flat : int array;
  order : int array; (* topological: program order with inputs at first use *)
  by_stmt : (string, int list) Hashtbl.t;
  instances : Interner.t; (* (stmt name, vec) -> dense instance id *)
  instance_node : int array; (* dense instance id -> node id *)
  n_inputs : int;
}

(* Flatten an adjacency array-of-arrays into CSR (offsets + one flat
   array): engines whose inner loops walk edges per scheduled node index
   one contiguous array instead of chasing a per-node pointer. *)
let csr_of adj =
  let n = Array.length adj in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + Array.length adj.(i)
  done;
  let flat = Array.make (max off.(n) 1) 0 in
  Array.iteri (fun i a -> Array.blit a 0 flat off.(i) (Array.length a)) adj;
  (off, flat)

(* Int arrays indexed by interned ids, growing with the interner. *)
let ensure arr len =
  if len <= Array.length !arr then ()
  else begin
    let bigger = Array.make (max len (2 * Array.length !arr)) (-1) in
    Array.blit !arr 0 bigger 0 (Array.length !arr);
    arr := bigger
  end

let dummy_kind = Input ("", [||])

let of_program ?(budget = Budget.unlimited) ~params p =
  (* Node storage grows geometrically; node ids are assigned in exactly
     the order the old list-based builder assigned them (input nodes at
     first read, in load order, before their compute node), so node
     numbering - and hence every DOT and report output - is unchanged. *)
  let kinds = ref (Array.make 1024 dummy_kind) in
  let preds = ref (Array.make 1024 [||]) in
  let n = ref 0 in
  (* Data cells and statement instances are interned to dense ids once,
     here, so dependence resolution runs on int-indexed arrays instead of
     hashing (string * int array) keys per access.  [intern_view] probes
     with the iterator's borrowed buffers and copies only on first
     sight. *)
  let cells = Interner.create () in
  let last_writer = ref (Array.make 1024 (-1)) in
  let instances = Interner.create () in
  let instance_node = ref (Array.make 1024 (-1)) in
  let inputs = ref 0 in
  let add_node kind pred_arr =
    let id = !n in
    incr n;
    Budget.check_node_cap budget Budget.Cdag_build !n;
    if id >= Array.length !kinds then begin
      let cap = 2 * Array.length !kinds in
      let nk = Array.make cap dummy_kind and np = Array.make cap [||] in
      Array.blit !kinds 0 nk 0 id;
      Array.blit !preds 0 np 0 id;
      kinds := nk;
      preds := np
    end;
    !kinds.(id) <- kind;
    !preds.(id) <- pred_arr;
    id
  in
  (* Reusable predecessor buffer, deduplicated in place per instance. *)
  let pbuf = ref (Array.make 16 0) in
  let pcount = ref 0 in
  (* Per-statement node lists, with a one-entry memo keyed by physical
     name equality: consecutive instances of the same statement skip the
     hash lookup entirely. *)
  let by_acc : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let last_name = ref "" in
  let last_ids = ref (ref []) in
  let stmt_ids name =
    if name == !last_name then !last_ids
    else begin
      let ids =
        match Hashtbl.find_opt by_acc name with
        | Some ids -> ids
        | None ->
            let ids = ref [] in
            Hashtbl.add by_acc name ids;
            ids
      in
      last_name := name;
      last_ids := ids;
      ids
    end
  in
  let on_load a idx =
    let cid = Interner.intern_view cells a idx in
    ensure last_writer (cid + 1);
    let w = !last_writer.(cid) in
    let pred =
      if w >= 0 then w
      else begin
        (* first sight of this cell: it is a program input; share the
           interner's owned copy of the index vector *)
        let _, owned = Interner.key cells cid in
        let id = add_node (Input (a, owned)) [||] in
        incr inputs;
        !last_writer.(cid) <- id;
        id
      end
    in
    if !pcount >= Array.length !pbuf then begin
      let bigger = Array.make (2 * Array.length !pbuf) 0 in
      Array.blit !pbuf 0 bigger 0 !pcount;
      pbuf := bigger
    end;
    !pbuf.(!pcount) <- pred;
    incr pcount
  in
  let on_stmt name vec =
    Budget.checkpoint budget Budget.Cdag_build;
    (* A value read twice by the same instance is a single dependence:
       insertion-sort the (tiny) buffer and drop duplicates in place. *)
    let b = !pbuf in
    let m = !pcount in
    for i = 1 to m - 1 do
      let v = b.(i) in
      let j = ref i in
      while !j > 0 && b.(!j - 1) > v do
        b.(!j) <- b.(!j - 1);
        decr j
      done;
      b.(!j) <- v
    done;
    let u = ref 0 in
    for i = 0 to m - 1 do
      if !u = 0 || b.(!u - 1) <> b.(i) then begin
        b.(!u) <- b.(i);
        incr u
      end
    done;
    let id = add_node (Compute (name, Array.copy vec)) (Array.sub b 0 !u) in
    pcount := 0;
    let iid = Interner.intern_view instances name vec in
    ensure instance_node (iid + 1);
    !instance_node.(iid) <- id;
    let ids = stmt_ids name in
    ids := id :: !ids
  in
  let on_store a idx =
    let cid = Interner.intern_view cells a idx in
    ensure last_writer (cid + 1);
    !last_writer.(cid) <- !n - 1
  in
  Program.iter_cells ~params p ~on_load ~on_stmt ~on_store;
  let nn = !n in
  let kinds = Array.sub !kinds 0 nn in
  let preds = Array.sub !preds 0 nn in
  (* successor lists in two passes: exact counts, then fill in id order
     (ascending, as the old rev-list construction produced) *)
  let deg = Array.make nn 0 in
  Array.iter
    (fun ps -> Array.iter (fun p -> deg.(p) <- deg.(p) + 1) ps)
    preds;
  let succs = Array.map (fun d -> Array.make d 0) deg in
  let fill = Array.make nn 0 in
  Array.iteri
    (fun id ps ->
      Array.iter
        (fun p ->
          succs.(p).(fill.(p)) <- id;
          fill.(p) <- fill.(p) + 1)
        ps)
    preds;
  let by_stmt = Hashtbl.create 16 in
  Hashtbl.iter (fun s ids -> Hashtbl.replace by_stmt s (List.rev !ids)) by_acc;
  let preds_off, preds_flat = csr_of preds in
  let succs_off, succs_flat = csr_of succs in
  {
    kinds;
    preds;
    succs;
    preds_off;
    preds_flat;
    succs_off;
    succs_flat;
    order = Array.init nn Fun.id;
    by_stmt;
    instances;
    instance_node = Array.sub !instance_node 0 (Interner.count instances);
    n_inputs = !inputs;
  }

let of_program_checked ?budget ~params p =
  Iolb_util.Engine_error.guard (fun () -> of_program ?budget ~params p)

let n_nodes t = Array.length t.kinds
let kind t id = t.kinds.(id)
let preds t id = t.preds.(id)
let succs t id = t.succs.(id)
let preds_csr t = (t.preds_off, t.preds_flat)
let succs_csr t = (t.succs_off, t.succs_flat)
let program_order t = t.order

let nodes_of_stmt t name =
  try Hashtbl.find t.by_stmt name with Not_found -> []

let node_of_instance t name vec =
  Option.map
    (fun iid -> t.instance_node.(iid))
    (Interner.find_opt t.instances (name, vec))

let n_inputs t = t.n_inputs
let n_computes t = n_nodes t - t.n_inputs

type reachability = {
  g : t;
  mark : int array; (* epoch-stamped visited marks, reused across queries *)
  mutable epoch : int;
  mutable stack : int array;
}

let reachability t =
  {
    g = t;
    mark = Array.make (max 1 (n_nodes t)) 0;
    epoch = 0;
    stack = Array.make 1024 0;
  }

(* Node ids are a topological order (every edge goes from a lower to a
   higher id), so no path leads from [a] to a lower [b], and no node above
   [b] leads back down to it: the search never enters ids beyond [b]. *)
let reaches r a b =
  if a = b then true
  else if a > b then false
  else begin
    let g = r.g in
    r.epoch <- r.epoch + 1;
    let e = r.epoch in
    let mark = r.mark in
    let sp = ref 0 in
    let push v =
      if !sp >= Array.length r.stack then begin
        let bigger = Array.make (2 * Array.length r.stack) 0 in
        Array.blit r.stack 0 bigger 0 !sp;
        r.stack <- bigger
      end;
      r.stack.(!sp) <- v;
      incr sp
    in
    mark.(a) <- e;
    push a;
    let found = ref false in
    while (not !found) && !sp > 0 do
      decr sp;
      let ss = g.succs.(r.stack.(!sp)) in
      let len = Array.length ss in
      let i = ref 0 in
      while (not !found) && !i < len do
        let v = ss.(!i) in
        if v = b then found := true
        else if v < b && mark.(v) <> e then begin
          mark.(v) <- e;
          push v
        end;
        incr i
      done
    done;
    !found
  end

let convex_closure t nodes =
  (* v is in the closure iff it reaches some member and is reached by some
     member.  Compute the forward set of [nodes] and the backward set, then
     intersect. *)
  let n = n_nodes t in
  let forward = Array.make n false and backward = Array.make n false in
  let bfs mark edges starts =
    let queue = Queue.create () in
    List.iter
      (fun s ->
        if not mark.(s) then begin
          mark.(s) <- true;
          Queue.add s queue
        end)
      starts;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun v ->
          if not mark.(v) then begin
            mark.(v) <- true;
            Queue.add v queue
          end)
        edges.(u)
    done
  in
  bfs forward t.succs nodes;
  bfs backward t.preds nodes;
  let out = ref [] in
  for id = n - 1 downto 0 do
    if forward.(id) && backward.(id) then out := id :: !out
  done;
  !out

let inset t nodes =
  let member = Hashtbl.create (List.length nodes) in
  List.iter (fun id -> Hashtbl.replace member id ()) nodes;
  let outside = Hashtbl.create 64 in
  List.iter
    (fun id ->
      Array.iter
        (fun p -> if not (Hashtbl.mem member p) then Hashtbl.replace outside p ())
        t.preds.(id))
    nodes;
  Hashtbl.length outside

let pp_stats fmt t =
  Format.fprintf fmt "nodes: %d (inputs: %d, computes: %d), edges: %d"
    (n_nodes t) t.n_inputs (n_computes t)
    (Array.fold_left (fun acc ps -> acc + Array.length ps) 0 t.preds)
