(* Sums and maxima over the scheduler's event stream. One immutable
   record per collection, replaced under a lock as each event is folded
   in, so the totals are exact however many domains emit at once and a
   snapshot is just the current record. *)

type snapshot = {
  schedule_calls : int;
  free_placements : int;
  positions_scanned : int;
  max_positions_in_call : int;
  candidates : int;
  tie_breaks : int;
  edges_added : int;
  edges_removed : int;
  max_in_degree_observed : int;
  max_out_degree_observed : int;
  elapsed_ns : int;
  closure_rows_touched : int;
  closure_words_ored : int;
  closure_rebuilds : int;
  closure_incremental_updates : int;
}

type t = { lock : Mutex.t; mutable totals : snapshot }

let zero =
  {
    schedule_calls = 0;
    free_placements = 0;
    positions_scanned = 0;
    max_positions_in_call = 0;
    candidates = 0;
    tie_breaks = 0;
    edges_added = 0;
    edges_removed = 0;
    max_in_degree_observed = 0;
    max_out_degree_observed = 0;
    elapsed_ns = 0;
    closure_rows_touched = 0;
    closure_words_ored = 0;
    closure_rebuilds = 0;
    closure_incremental_updates = 0;
  }

let create () = { lock = Mutex.create (); totals = zero }

let add (c : snapshot) : Events.event -> snapshot = function
  | Schedule_start _ -> { c with schedule_calls = c.schedule_calls + 1 }
  | Candidate _ -> { c with candidates = c.candidates + 1 }
  | Tie_break _ -> { c with tie_breaks = c.tie_breaks + 1 }
  | Chosen _ -> c
  | Edge_added _ -> { c with edges_added = c.edges_added + 1 }
  | Edge_removed _ -> { c with edges_removed = c.edges_removed + 1 }
  | Free_placed _ -> { c with free_placements = c.free_placements + 1 }
  | Schedule_done { summary = s; _ } ->
    {
      c with
      positions_scanned = c.positions_scanned + s.scanned;
      max_positions_in_call = max c.max_positions_in_call s.scanned;
      max_in_degree_observed =
        max c.max_in_degree_observed s.max_thread_in_degree;
      max_out_degree_observed =
        max c.max_out_degree_observed s.max_thread_out_degree;
      elapsed_ns = c.elapsed_ns + s.elapsed_ns;
    }
  | Reach_update { rows; words; rebuilt } ->
    {
      c with
      closure_rows_touched = c.closure_rows_touched + rows;
      closure_words_ored = c.closure_words_ored + words;
      closure_rebuilds = (c.closure_rebuilds + if rebuilt then 1 else 0);
      closure_incremental_updates =
        (c.closure_incremental_updates + if rebuilt then 0 else 1);
    }

let sink c event =
  Mutex.lock c.lock;
  c.totals <- add c.totals event;
  Mutex.unlock c.lock

let snapshot c = c.totals

(* Key/value view, keys sorted, for the QoR report's per-phase counter
   deltas. *)
let to_alist (s : snapshot) : (string * float) list =
  let f = float_of_int in
  [
    ("candidates", f s.candidates);
    ("closure_incremental_updates", f s.closure_incremental_updates);
    ("closure_rebuilds", f s.closure_rebuilds);
    ("closure_rows_touched", f s.closure_rows_touched);
    ("closure_words_ored", f s.closure_words_ored);
    ("cross_edges_touched", f (s.edges_added + s.edges_removed));
    ("edges_added", f s.edges_added);
    ("edges_removed", f s.edges_removed);
    ("elapsed_ns", f s.elapsed_ns);
    ("free_placements", f s.free_placements);
    ("max_in_degree_observed", f s.max_in_degree_observed);
    ("max_out_degree_observed", f s.max_out_degree_observed);
    ("max_positions_in_call", f s.max_positions_in_call);
    ("positions_scanned", f s.positions_scanned);
    ("schedule_calls", f s.schedule_calls);
    ("tie_breaks", f s.tie_breaks);
  ]

let to_string ?(state = []) (s : snapshot) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "scheduler telemetry:";
  line "  schedule calls        %8d  (%d free placements)" s.schedule_calls
    s.free_placements;
  line "  positions scanned     %8d  (max %d in one call, %d feasible)"
    s.positions_scanned s.max_positions_in_call s.candidates;
  line "  tie-breaks taken      %8d" s.tie_breaks;
  line "  edges re-tightened    %8d  (+%d / -%d cross edges)"
    (s.edges_added + s.edges_removed) s.edges_added s.edges_removed;
  List.iter (line "  %s") state;
  if s.closure_rebuilds + s.closure_incremental_updates > 0 then begin
    line "  closure updates       %8d  (%d full rebuilds)"
      s.closure_incremental_updates s.closure_rebuilds;
    line "  closure rows touched  %8d  (%d words OR'd)" s.closure_rows_touched
      s.closure_words_ored
  end;
  line "  time in scheduler     %11.2f ms" (float_of_int s.elapsed_ns /. 1e6);
  Buffer.contents b
