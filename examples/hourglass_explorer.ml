(* Explore the hourglass structure on small concrete CDAGs: show the
   reduction/broadcast chains of Section 3, the forced shape of convex
   K-bounded sets (Lemma 3), and the inset blow-up that powers the bound.
   Optionally writes a Graphviz rendering with the forced closure
   highlighted.

   Run with:  dune exec examples/hourglass_explorer.exe -- [kernel] [out.dot] *)

module Cdag = Iolb_cdag.Cdag
module Program = Iolb_ir.Program
module H = Iolb.Hourglass

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "mgs" in
  let entry = Iolb.Report.find name in
  let prog = entry.Iolb.Report.program in
  let params = entry.Iolb.Report.verify_params in
  Printf.printf "Kernel: %s at %s\n" entry.Iolb.Report.display
    (String.concat ", "
       (List.map (fun (p, v) -> Printf.sprintf "%s=%d" p v) params));
  let cdag = Cdag.of_program ~params prog in
  Format.printf "CDAG: %a@." Cdag.pp_stats cdag;
  let patterns = H.detect_verified ~params prog in
  let reach = Cdag.reachability cdag in
  List.iter
    (fun (h : H.t) ->
      Format.printf "@.%a@." H.pp h;
      let info = Program.find_stmt prog h.update_stmt in
      let dim_index d =
        Option.get (List.find_index (String.equal d) info.Program.dims)
      in
      (* Take two instances at the same neutral coordinates, consecutive
         temporal coordinates, and display the convex closure forced
         between them: Lemma 3 in action. *)
      let nodes = Cdag.nodes_of_stmt cdag h.update_stmt in
      let vec_of id =
        match Cdag.kind cdag id with
        | Cdag.Compute (_, v) -> v
        | Cdag.Input _ -> assert false
      in
      let t_idx = List.map dim_index h.temporal in
      let n_idx = List.map dim_index h.neutral in
      let key idxs v = List.map (fun i -> v.(i)) idxs in
      let found = ref None in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if !found = None then begin
                let va = vec_of a and vb = vec_of b in
                if
                  key n_idx va = key n_idx vb
                  && key t_idx vb > key t_idx va
                  && Cdag.reaches reach a b
                then found := Some (a, b)
              end)
            nodes)
        nodes;
      match !found with
      | None -> Format.printf "  (no spanning pair at these sizes)@."
      | Some (a, b) ->
          let show id =
            match Cdag.kind cdag id with
            | Cdag.Compute (s, v) ->
                Printf.sprintf "%s[%s]" s
                  (String.concat ","
                     (List.map string_of_int (Array.to_list v)))
            | Cdag.Input (arr, v) ->
                Printf.sprintf "in:%s[%s]" arr
                  (String.concat ","
                     (List.map string_of_int (Array.to_list v)))
          in
          Format.printf "  spanning pair: %s -> %s@." (show a) (show b);
          let closure = Cdag.convex_closure cdag [ a; b ] in
          Format.printf
            "  convex closure: %d nodes (any convex set containing both must \
             include them all)@."
            (List.length closure);
          (* Count how many distinct update-statement reduction rows the
             closure spans: the width of the forced neck. *)
          let reduction_nodes =
            List.filter
              (fun id ->
                match Cdag.kind cdag id with
                | Cdag.Compute (s, _) -> s = h.reduction_stmt
                | Cdag.Input _ -> false)
              closure
          in
          Format.printf "  reduction (%s) nodes inside: %d@." h.reduction_stmt
            (List.length reduction_nodes);
          Format.printf "  inset of the closure: %d values@."
            (Cdag.inset cdag closure);
          Format.printf
            "  => a K-bounded set spanning two temporal steps needs K >= %d@."
            (Cdag.inset cdag closure);
          if Array.length Sys.argv > 2 then begin
            let path = Sys.argv.(2) in
            Iolb_cdag.Dot.to_file ~highlight:closure path cdag;
            Format.printf "  wrote %s (closure highlighted)@." path
          end)
    patterns
