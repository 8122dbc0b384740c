open Import

type outcome = {
  best_csteps : int;
  best_state : Threaded_graph.t;
  evaluated : int;
  accepted : int;
}

let evaluate ~tie ~resources g order =
  let state = Threaded_graph.create g ~resources in
  Threaded_graph.schedule_all ~tie state (Array.to_list order);
  state

let ties = [| `First; `Balance; `Pack |]

let run ?(seed = 0) ?(iterations = 400) ?deadline ?(init_temp = 2.0)
    ?(cooling = 0.985) ~resources g =
  let n = Graph.n_vertices g in
  let rng = Random.State.make [| seed; 0x50f7; n |] in
  let order = Array.of_list (Meta.topological g) in
  let tie = ref 0 in
  let best_state = ref (evaluate ~tie:ties.(!tie) ~resources g order) in
  let cost = ref (Threaded_graph.diameter !best_state) in
  let best = ref !cost in
  let evaluated = ref 1 in
  let accepted = ref 0 in
  let temp = ref init_temp in
  if n >= 2 then begin
    let i = ref 0 in
    while !i < iterations && not (expired deadline) do
      incr i;
      (* Propose: mostly order transpositions, occasionally flip the
         select tie-break — both leave the meta schedule legal (any
         permutation is, per Definition 2). *)
      let cand_tie, undo =
        if Random.State.float rng 1.0 < 0.25 then begin
          let t = (!tie + 1 + Random.State.int rng 2) mod 3 in
          (t, fun () -> ())
        end
        else begin
          let a = Random.State.int rng n in
          let b = Random.State.int rng n in
          let va = order.(a) and vb = order.(b) in
          order.(a) <- vb;
          order.(b) <- va;
          (!tie, fun () -> order.(a) <- va; order.(b) <- vb)
        end
      in
      let cand_state = evaluate ~tie:ties.(cand_tie) ~resources g order in
      let cand = Threaded_graph.diameter cand_state in
      incr evaluated;
      let delta = cand - !cost in
      let accept =
        delta <= 0
        || Random.State.float rng 1.0 < exp (-.float_of_int delta /. !temp)
      in
      if accept then begin
        incr accepted;
        tie := cand_tie;
        cost := cand;
        if cand < !best then begin
          best := cand;
          best_state := cand_state
        end
      end
      else undo ();
      temp := Float.max 0.01 (!temp *. cooling)
    done
  end;
  {
    best_csteps = !best;
    best_state = !best_state;
    evaluated = !evaluated;
    accepted = !accepted;
  }
