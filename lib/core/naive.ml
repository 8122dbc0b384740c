let select state v =
  let positions = Threaded_graph.feasible_positions state v in
  List.fold_left
    (fun best position ->
      let trial = Threaded_graph.copy state in
      Threaded_graph.commit_at trial v position;
      let dia = Threaded_graph.diameter trial in
      match best with
      | Some (_, best_dia) when best_dia <= dia -> best
      | Some _ | None -> Some (position, dia))
    None positions

let schedule state v =
  if not (Threaded_graph.is_scheduled state v) then
    match select state v with
    | None -> Threaded_graph.schedule state v (* zero-resource: free *)
    | Some (position, _) -> Threaded_graph.commit_at state v position

let run ?(meta = Meta.topological) ~resources g =
  let state = Threaded_graph.create g ~resources in
  List.iter (schedule state) (meta g);
  state
