(* The traced pass shared by every workload: replay the ops once with
   spans off and once with spans on, require identical work counts, and
   turn the spans into per-layer metrics plus a per-op-kind breakdown. *)

open Common

(* [in_child f] is [f ()] computed in a forked copy of this process, so
   that process-wide memo tables (e.g. the Fourier-Motzkin cache) start
   as cold as they do in a fresh command.  The result comes back
   marshalled over a pipe. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = (Marshal.from_channel ic : ('a, string) result) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with Ok v -> v | Error e -> failwith e)

(* [replay ~ops]: each op is (kind, command wall in s, thunk).  A thunk
   replays the command through the libraries and returns whether the
   replay reproduced the command's output.

   Every op is replayed in its own forked process, as each command runs in
   its own process, three times: traced (the spans), untraced (the
   baseline for the tracing overhead), and with counting budgets (the
   [steps.*] counts).  The structure counts of the traced and counting
   passes must agree. *)
let replay ~ops =
  let one (traced, counting) i (kind, _, f) () =
    Replay.counting := counting;
    Span.reset ();
    Span.next_id := i * 1_000_000;
    Span.current_op := i;
    Span.enabled := traced;
    let ok, wall =
      Clock.time (fun () ->
          Span.with_ ("op." ^ kind) (fun () ->
              try f ()
              with e ->
                prerr_endline ("perfbench: replay raised " ^ Printexc.to_string e);
                false))
    in
    (ok, wall, !Span.spans, Span.counts_sorted ())
  in
  let pass traced =
    let per_op = List.mapi (fun i op -> in_child (one traced i op)) ops in
    let merged = Hashtbl.create 64 in
    List.iter
      (fun (_, _, _, counts) ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace merged k (v + Option.value ~default:0 (Hashtbl.find_opt merged k)))
          counts)
      per_op;
    ( List.map (fun (ok, _, _, _) -> ok) per_op,
      Stats.sum (List.map (fun (_, w, _, _) -> w) per_op),
      List.concat_map (fun (_, _, sp, _) -> sp) per_op,
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [] |> List.sort compare )
  in
  let results, wall_on, spans, counts_on = pass (true, false) in
  let _, wall_off, _, _ = pass (false, false) in
  let _, _, _, counts = pass (false, true) in
  Span.reset ();
  Span.spans := spans;
  List.iter (fun (k, v) -> Hashtbl.replace Span.counts k v) counts;
  let structure = List.filter (fun (k, _) -> not (String.starts_with ~prefix:"steps." k)) in
  invariant
    (structure counts = structure counts_on)
    "structure counts differ between the counting and traced replays";
  List.iter2
    (fun (kind, _, _) ok ->
      attempt ();
      check ok "replay of a %s op does not reproduce the command's output" kind)
    ops results;
  metric "tracing_overhead_frac" "frac" ((wall_on -. wall_off) /. wall_off);
  List.iter
    (fun (name, unit_, src) ->
      match src with
      | Layers.Span s -> metric name unit_ (Span.total_ms s)
      | Layers.Count c ->
          metric name unit_
            (float_of_int (Option.value ~default:0 (List.assoc_opt c counts)))
      | Layers.Derived -> ())
    Layers.all;
  (* Where each op kind's replay time went, by layer self time. *)
  Printf.printf "traced replay: %d ops, %d spans, %.3f s traced / %.3f s untraced\n"
    (List.length ops) (List.length spans) wall_on wall_off;
  let kind = Array.of_list (List.map (fun (k, _, _) -> k) ops) in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  let command = Hashtbl.create 8 and replayed = Hashtbl.create 8 and layers = Hashtbl.create 64 in
  List.iter (fun (k, w, _) -> add command k (w *. 1000.)) ops;
  List.iter
    (fun ((s : Span.t), self) ->
      let k = kind.(s.Span.op) in
      if s.Span.parent < 0 then begin
        add replayed k (Span.dur_ms s);
        add layers (k, "(replay glue)") self
      end
      else add layers (k, s.Span.name) self)
    (Span.self_ms ());
  List.iter
    (fun k ->
      let total = Hashtbl.find replayed k in
      Printf.printf "  %-10s x%-3d command %9.1f ms | replay %9.1f ms:" k
        (Array.fold_left (fun n k' -> if k = k' then n + 1 else n) 0 kind)
        (Hashtbl.find command k) total;
      Hashtbl.fold (fun (k', l) v acc -> if k = k' then (l, v) :: acc else acc) layers []
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      |> List.filteri (fun i _ -> i < 5)
      |> List.iter (fun (l, v) -> Printf.printf " %s %.1f (%.0f%%)" l v (100. *. v /. total));
      print_newline ())
    (List.sort_uniq compare (Array.to_list kind))
