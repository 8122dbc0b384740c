(* Core of the telemetry subsystem: the event vocabulary the scheduler
   emits, the sink (a function over events) they are delivered to, and
   the process-global installation point guarded by a single mutable
   flag, so an uninstrumented run pays one inlined boolean load per
   emission site and allocates nothing. *)

(* End-of-call summary, built by the scheduler from values it keeps
   anyway (the incremental labels, a running edge count), and only when
   a sink is installed. *)
type summary = {
  scanned : int;  (* candidate positions examined by this schedule call *)
  diameter : int;  (* ‖S‖ after the commit *)
  state_edges : int;  (* implicit thread edges + explicit cross edges *)
  max_thread_in_degree : int;  (* Lemma 7, over the vertices the call touched *)
  max_thread_out_degree : int;
  elapsed_ns : int;  (* wall time spent inside the schedule call *)
}

type event =
  | Schedule_start of { v : int; name : string }
      (* [schedule v] entered for a not-yet-scheduled vertex *)
  | Candidate of { v : int; thread : int; after : int option; cost : int }
      (* one feasible position of the select scan; [after = None] is the
         head of the thread *)
  | Tie_break of { v : int; rule : string; ties : int }
      (* more than one position reached the minimum cost; [rule] is the
         tie-break in force ("first" | "balance" | "pack") *)
  | Chosen of { v : int; thread : int; after : int option; cost : int }
      (* the position select settled on, before the commit *)
  | Edge_added of { src : int; dst : int }
      (* explicit cross edge added during commit re-tightening *)
  | Edge_removed of { src : int; dst : int }
      (* explicit cross edge dropped because it became implied *)
  | Free_placed of { v : int; name : string }
      (* zero-resource vertex committed as a free (thread-less) op *)
  | Schedule_done of { v : int; thread : int option; summary : summary }
      (* the call returned; [thread = None] for free vertices *)
  | Reach_update of { rows : int; words : int; rebuilt : bool }
      (* the reachability index caught up with the graph journal: [rows]
         bitset rows touched and [words] 64-bit words OR'd; [rebuilt]
         when an uncovered edge removal forced a from-scratch closure *)

type sink = event -> unit

(* --- global installation ------------------------------------------- *)

let enabled_flag = ref false
let current : sink ref = ref ignore

let[@inline] enabled () = !enabled_flag
let emit event = !current event

let with_sink sink f =
  let saved_sink = !current and saved_flag = !enabled_flag in
  current := sink;
  enabled_flag := true;
  Fun.protect
    ~finally:(fun () ->
      current := saved_sink;
      enabled_flag := saved_flag)
    f

(* --- clock --------------------------------------------------------- *)

let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

(* --- recording ----------------------------------------------------- *)

type timed = { at_ns : int; event : event }

module Recorder = struct
  type t = { lock : Mutex.t; mutable rev_events : timed list; mutable n : int }

  let create () = { lock = Mutex.create (); rev_events = []; n = 0 }

  (* Sinks may be called from several domains at once (a parallel
     batch). Stamping under the lock keeps the recording in timestamp
     order and its length exact. *)
  let push r event =
    Mutex.lock r.lock;
    r.rev_events <- { at_ns = now_ns (); event } :: r.rev_events;
    r.n <- r.n + 1;
    Mutex.unlock r.lock

  let events r = List.rev r.rev_events
  let length r = r.n
end
