open Import

type outcome = {
  best_csteps : int;
  best_order : Graph.vertex list;
  evaluated : int;
  history : int list;
}

(* Built on demand: an order not reached before the deadline is never
   computed ([Meta.list_like] alone runs a list scheduler). *)
let candidate_orders ~restarts ~seed ~resources g =
  let standard =
    List.map (fun (_, meta) () -> meta g) (Meta.fig3 ~resources)
  in
  let random =
    List.init restarts (fun i () -> Meta.random ~seed:(seed + i) g)
  in
  standard @ random

(* Evaluate the candidates in turn, keeping the first strict minimum
   and its state. Past [deadline] no further order is started; the
   first always runs, so there is a champion. *)
let champion ?tie ?deadline ?(restarts = 16) ?(seed = 0) ~resources g =
  let evaluate order =
    let state = Threaded_graph.create g ~resources in
    Threaded_graph.schedule_all ?tie state order;
    (Threaded_graph.diameter state, state)
  in
  let rec go best history = function
    | next :: rest when Option.is_none best || not (expired deadline) ->
      let order = next () in
      let csteps, state = evaluate order in
      let ((best_csteps, _, _) as best) =
        match best with
        | Some ((c, _, _) as b) when c <= csteps -> b
        | _ -> (csteps, order, state)
      in
      go (Some best) (best_csteps :: history) rest
    | _ -> (best, List.rev history)
  in
  match go None [] (candidate_orders ~restarts ~seed ~resources g) with
  | None, _ -> invalid_arg "Search.run: empty graph produced no candidates"
  | Some (best_csteps, best_order, state), history ->
    ( { best_csteps; best_order; evaluated = List.length history; history },
      state )

let run ?tie ?restarts ?seed ~resources g =
  fst (champion ?tie ?restarts ?seed ~resources g)

let best_state ?tie ?restarts ?seed ?deadline ~resources g =
  snd (champion ?tie ?deadline ?restarts ?seed ~resources g)

(* Move the element at [from] to sit at position [to_] (positions in
   the list with the element removed). *)
let relocate order ~from ~to_ =
  let array = Array.of_list order in
  let moved = array.(from) in
  let rest =
    Array.to_list array |> List.filteri (fun i _ -> i <> from)
  in
  let rec insert i = function
    | rest when i = 0 -> moved :: rest
    | [] -> [ moved ]
    | x :: tl -> x :: insert (i - 1) tl
  in
  insert to_ rest

let hill_climb ?tie ?(steps = 200) ?(seed = 0) ~resources g =
  let start = run ?tie ~seed ~resources g in
  let n = Graph.n_vertices g in
  if n < 2 then start
  else begin
    let rng = Random.State.make [| seed + 101 |] in
    let evaluate order =
      let state = Threaded_graph.create g ~resources in
      Threaded_graph.schedule_all ?tie state order;
      Threaded_graph.diameter state
    in
    let best_order = ref start.best_order in
    let best_csteps = ref start.best_csteps in
    let history = ref (List.rev start.history) in
    for _ = 1 to steps do
      let from = Random.State.int rng n in
      let to_ = Random.State.int rng n in
      let candidate = relocate !best_order ~from ~to_ in
      let csteps = evaluate candidate in
      if csteps <= !best_csteps then begin
        best_csteps := csteps;
        best_order := candidate
      end;
      history := !best_csteps :: !history
    done;
    {
      best_csteps = !best_csteps;
      best_order = !best_order;
      evaluated = start.evaluated + steps;
      history = List.rev !history;
    }
  end
