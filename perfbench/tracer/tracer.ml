(* In-process layer profile of one request stream.

   Usage: tracer.exe REQUESTS REPLIES SPANS CACHE_CAPACITY PRIME

   The first PRIME requests warm the service before any timing, as the
   daemon's set-up does; they are answered but not measured.

   Replays the stream on one worker through the serving layer's public
   calls and times each one: Protocol.request_of_line (protocol),
   Service.prepare (prepare), Service.execute (cache lookup on a hit,
   the kernel or a race on a miss) and Service.line (emit). Beside the
   request timeline, shadow runs on the same input split the layers
   further:
   - prepare: Dfg.Serial.of_string and Serve.Fingerprint.key;
   - a fast miss: the steps Soft.Engine.threaded_run takes (the meta
     order, Threaded_graph.create, each Threaded_graph.schedule call,
     to_schedule), timed with no telemetry sink, then replayed once more
     under a Telemetry.Counters sink for exact counts;
   - a race miss: Serve.Race.run over the default portfolio, for the
     per-engine times, wins and cancellations.
   Shadow time is kept off the request timeline, so the timeline wall
   minus the request spans is the part no span covers.

   The stream then runs untraced (the overhead baseline) and once more
   with counting only; the two counting runs must agree exactly, and
   every shadow kernel diameter must equal its reply's diameter.

   Writes the first run's reply lines to REPLIES (one per request), its
   spans keyed by request id to SPANS (see [write_spans]), and prints
   one JSON object: {"metrics": {name: [value, unit]}, "layers_s":
   {layer: seconds}, "info": {...}, "errors": [...]}. *)

module Protocol = Serve.Protocol
module Service = Serve.Service
module Race = Serve.Race
module T = Soft.Threaded_graph
module C = Telemetry.Counters

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Accumulators. Every span goes through [span]: it adds to the
   per-layer total and to the current request's span list, which is
   written out keyed by request id at the end. *)
type acc = {
  totals : (string, float) Hashtbl.t;  (* span name -> seconds *)
  mutable current : (string * float) list;  (* this request's spans *)
  mutable spans : (string * (string * float) list) list;  (* by request *)
  mutable requests : int;
  mutable hits : int;
  mutable fast_misses : int;
  mutable race_misses : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable inline : int;
  mutable calls : int;
  mutable positions_per_call_per_v : float;
  mutable races : int;
  mutable cancelled : int;
  mutable winner_time : float;
  mutable engine_time : float;
  engine_ms : (string, float) Hashtbl.t;
  wins : (string, int) Hashtbl.t;
  mutable shadow : float;
  mutable diameters : int list;
  counts : int array;  (* see [count_names] *)
}

let count_names =
  [| "kernel.schedule_calls"; "kernel.positions_scanned"; "kernel.candidates";
     "kernel.edges_added"; "kernel.edges_removed"; "reach.rows_touched";
     "reach.words_ored"; "reach.rebuilds" |]

let total acc name =
  Option.value ~default:0. (Hashtbl.find_opt acc.totals name)

let fresh () =
  {
    totals = Hashtbl.create 16; current = []; spans = [];
    requests = 0; hits = 0; fast_misses = 0; race_misses = 0;
    bytes_in = 0; bytes_out = 0; inline = 0; calls = 0;
    positions_per_call_per_v = 0.; races = 0; cancelled = 0;
    winner_time = 0.;
    engine_time = 0.; engine_ms = Hashtbl.create 8; wins = Hashtbl.create 8;
    shadow = 0.; diameters = [];
    counts = Array.make (Array.length count_names) 0;
  }

let span acc name dt =
  Hashtbl.replace acc.totals name (dt +. total acc name);
  acc.current <- (name, dt) :: acc.current

let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let graph_of_spec = function
  | Protocol.Named n -> (Hls_bench.Suite.find n).Hls_bench.Suite.build ()
  | Protocol.Inline_dfg text -> Dfg.Serial.of_string text
  | Protocol.Inline_beh text -> Ir.Lower.of_source text

let meta_of (req : Protocol.request) =
  let resources = req.Protocol.resources in
  match Soft.Meta.of_name ~resources req.Protocol.meta with
  | Some m -> m
  | None -> failwith ("unknown meta " ^ req.Protocol.meta)

(* The steps of Engine.threaded_run (no deadline): one span each for
   the meta order, create and to_schedule, one per schedule call. *)
let kernel_timed acc req g =
  let meta = meta_of req in
  let order, t_meta = timed (fun () -> meta g) in
  span acc "kernel.meta" t_meta;
  let st, t_create =
    timed (fun () -> T.create g ~resources:req.Protocol.resources)
  in
  span acc "kernel.create" t_create;
  List.iter
    (fun v ->
      if not (T.is_scheduled st v) then begin
        let (), dt = timed (fun () -> T.schedule st v) in
        span acc "kernel.schedule" dt;
        acc.calls <- acc.calls + 1
      end)
    order;
  let sched, t_extract = timed (fun () -> T.to_schedule st) in
  span acc "kernel.extract" t_extract;
  Hard.Schedule.length sched

(* The same steps under a Counters sink, for exact counts. *)
let kernel_counted acc req g =
  let meta = meta_of req in
  let c = C.create () in
  Telemetry.with_sink (C.sink c) (fun () ->
      let st = T.create g ~resources:req.Protocol.resources in
      List.iter (fun v -> if not (T.is_scheduled st v) then T.schedule st v)
        (meta g));
  let s = C.snapshot c in
  let row =
    [| s.C.schedule_calls; s.C.positions_scanned; s.C.candidates;
       s.C.edges_added; s.C.edges_removed; s.C.closure_rows_touched;
       s.C.closure_words_ored; s.C.closure_rebuilds |]
  in
  Array.iteri (fun i n -> acc.counts.(i) <- acc.counts.(i) + n) row;
  if s.C.schedule_calls > 0 then
    acc.positions_per_call_per_v <-
      acc.positions_per_call_per_v
      +. float s.C.positions_scanned
         /. float s.C.schedule_calls
         /. float (Dfg.Graph.n_vertices g)

let race_shadow acc (req : Protocol.request) g =
  let engines =
    match req.Protocol.engines with
    | Some names -> List.filter_map Soft.Engine.find names
    | None -> Race.default_portfolio ()
  in
  match
    timed (fun () ->
        Race.run ~meta:req.Protocol.meta ~engines
          ~resources:req.Protocol.resources g)
  with
  | Error m, _ ->
    error "%s: shadow race failed: %s"
      (Option.value ~default:"?" req.Protocol.id) m
  | Ok race, dt ->
    span acc "race.run" dt;
    acc.races <- acc.races + 1;
    let winner = race.Race.winner.Soft.Engine.annot.Soft.Engine.engine in
    Hashtbl.replace acc.wins winner
      (1 + Option.value ~default:0 (Hashtbl.find_opt acc.wins winner));
    List.iter
      (fun (e : Race.entry) ->
        if e.Race.cancelled then acc.cancelled <- acc.cancelled + 1;
        match e.Race.outcome with
        | None -> ()
        | Some o ->
          let w = o.Soft.Engine.annot.Soft.Engine.wall_s in
          acc.engine_time <- acc.engine_time +. w;
          if e.Race.engine = winner then
            acc.winner_time <- acc.winner_time +. w;
          let prev = Hashtbl.find_opt acc.engine_ms e.Race.engine in
          Hashtbl.replace acc.engine_ms e.Race.engine
            (w +. Option.value ~default:0. prev))
      race.Race.entries

(* One pass over the stream. [spans]: time the request timeline and run
   the timing shadows; [count]: run the counting shadow; [out]: where
   reply lines go. *)
let pass ~capacity ~prime ~spans ~count ?out lines =
  let svc = Service.create ~cache_capacity:capacity () in
  let emit reply =
    match out with
    | Some oc ->
      output_string oc reply;
      output_char oc '\n'
    | None -> ()
  in
  let lines =
    List.filteri
      (fun i text ->
        if i < prime then begin
          let trace = Service.next_trace svc ~prefix:"t" in
          emit
            (match Protocol.request_of_line text with
            | Error m -> Protocol.error_line ~trace m
            | Ok req -> (
              let id = req.Protocol.id in
              match Service.prepare svc req with
              | Error m -> Protocol.error_line ?id ~trace m
              | Ok p ->
                let o, cached = Service.execute svc p in
                Service.line ?id ~trace ~cached
                  ~want_schedule:req.Protocol.want_schedule o))
        end;
        i >= prime)
      lines
  in
  let acc = fresh () in
  let before = Service.cache_stats svc in
  let shadow f =
    let t0 = now () in
    let r = f () in
    acc.shadow <- acc.shadow +. (now () -. t0);
    r
  in
  let t_start = now () in
  List.iter
    (fun text ->
      acc.requests <- acc.requests + 1;
      acc.current <- [];
      let trace = Service.next_trace svc ~prefix:"t" in
      let parsed, t_parse = timed (fun () -> Protocol.request_of_line text) in
      span acc "protocol.parse" t_parse;
      let reply =
        match parsed with
        | Error m -> Protocol.error_line ~trace m
        | Ok req -> (
          let id = req.Protocol.id in
          match timed (fun () -> Service.prepare svc req) with
          | Error m, t_prep ->
            span acc "service.prepare" t_prep;
            Protocol.error_line ?id ~trace m
          | Ok p, t_prep ->
            span acc "service.prepare" t_prep;
            (match req.Protocol.spec with
            | Protocol.Inline_dfg dfg when spans ->
              shadow (fun () ->
                  let g, t_serial =
                    timed (fun () -> Dfg.Serial.of_string dfg)
                  in
                  let _, t_fp =
                    timed (fun () ->
                        Serve.Fingerprint.key ~meta:req.Protocol.meta
                          ~resources:req.Protocol.resources g)
                  in
                  span acc "dfg.serial_parse" t_serial;
                  span acc "fingerprint.key" t_fp;
                  acc.inline <- acc.inline + 1)
            | _ -> ());
            let (o, cached), t_exec = timed (fun () -> Service.execute svc p) in
            let result = Service.result_of o in
            acc.diameters <- result.Protocol.diameter :: acc.diameters;
            (if cached then begin
               acc.hits <- acc.hits + 1;
               span acc "service.lookup" t_exec
             end
             else
               match req.Protocol.effort with
               | Protocol.Fast ->
                 acc.fast_misses <- acc.fast_misses + 1;
                 span acc "service.execute_fast" t_exec;
                 shadow (fun () ->
                     let g = graph_of_spec req.Protocol.spec in
                     if spans then begin
                       let d = kernel_timed acc req g in
                       if d <> result.Protocol.diameter then
                         error "%s: shadow kernel diameter %d, reply %d"
                           (Option.value ~default:"?" id) d
                           result.Protocol.diameter
                     end;
                     if count then kernel_counted acc req g)
               | Protocol.Race | Protocol.Exhaustive ->
                 acc.race_misses <- acc.race_misses + 1;
                 span acc "service.execute_race" t_exec;
                 if spans && req.Protocol.effort = Protocol.Race then
                   shadow (fun () ->
                       race_shadow acc req (graph_of_spec req.Protocol.spec)));
            let line, t_line =
              timed (fun () ->
                  Service.line ?id ~trace ~cached
                    ~want_schedule:req.Protocol.want_schedule o)
            in
            span acc "service.line" t_line;
            line)
      in
      let key =
        match parsed with
        | Ok { Protocol.id = Some id; _ } -> id
        | _ -> trace
      in
      if spans then acc.spans <- (key, List.rev acc.current) :: acc.spans;
      acc.bytes_in <- acc.bytes_in + String.length text + 1;
      acc.bytes_out <- acc.bytes_out + String.length reply + 1;
      emit reply)
    lines;
  let wall = now () -. t_start in
  let after = Service.cache_stats svc in
  (acc, wall, before, after)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if l = "" then acc else l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let r = go [] in
  close_in ic;
  r

(* One NDJSON line per measured request: its id (the trace id when the
   request carried none) and its spans as [name, microseconds] pairs in
   the order they ran, shadow spans included under their layer names. *)
let write_spans path acc =
  let oc = open_out_bin path in
  List.iter
    (fun (id, spans) ->
      let module J = Qor.Json in
      output_string oc
        (J.to_string ~minify:true
           (J.Obj
              [
                ("id", J.str id);
                ( "spans_us",
                  J.Arr
                    (List.map
                       (fun (n, dt) -> J.Arr [ J.str n; J.num (1e6 *. dt) ])
                       spans) );
              ]));
      output_char oc '\n')
    (List.rev acc.spans);
  close_out oc

let mean_int = function
  | [] -> 0.
  | xs -> float (List.fold_left ( + ) 0 xs) /. float (List.length xs)

let () =
  match Sys.argv with
  | [| _; req_path; out_path; spans_path; capacity; prime |] ->
    let capacity = int_of_string capacity in
    let prime = int_of_string prime in
    let lines = read_lines req_path in
    let oc = open_out_bin out_path in
    let a, traced_wall, before, after =
      pass ~capacity ~prime ~spans:true ~count:true ~out:oc lines
    in
    close_out oc;
    write_spans spans_path a;
    let _, untraced_wall, _, _ =
      pass ~capacity ~prime ~spans:false ~count:false lines
    in
    let b, _, _, _ = pass ~capacity ~prime ~spans:false ~count:true lines in
    if a.counts <> b.counts then
      error "counts differ between two counting runs: %s vs %s"
        (String.concat "," (Array.to_list (Array.map string_of_int a.counts)))
        (String.concat "," (Array.to_list (Array.map string_of_int b.counts)));
    if a.diameters <> b.diameters then
      error "reply diameters differ between two runs";
    let t = total a in
    let sum names = List.fold_left (fun acc n -> acc +. t n) 0. names in
    let per n x = if n = 0 then 0. else x /. float n in
    let ms n x = 1000. *. per n x in
    let request_time =
      sum
        [ "protocol.parse"; "service.prepare"; "service.lookup";
          "service.execute_fast"; "service.execute_race"; "service.line" ]
    in
    let share x = if request_time > 0. then x /. request_time else 0. in
    let timeline = traced_wall -. a.shadow in
    let kernel =
      sum
        [ "kernel.meta"; "kernel.create"; "kernel.schedule"; "kernel.extract" ]
    in
    let lookups = after.Serve.Cache.hits + after.Serve.Cache.misses
                  - before.Serve.Cache.hits - before.Serve.Cache.misses in
    let metrics =
      [
        ("protocol.parse_ms", ms a.requests (t "protocol.parse"), "ms");
        ("protocol.bytes_in", per a.requests (float a.bytes_in), "B");
        ("protocol.bytes_out", per a.requests (float a.bytes_out), "B");
        ("service.prepare_ms", ms a.requests (t "service.prepare"), "ms");
        ("dfg.serial_parse_ms", ms a.inline (t "dfg.serial_parse"), "ms");
        ("fingerprint.key_ms", ms a.inline (t "fingerprint.key"), "ms");
        ("cache.hit_ratio",
         per lookups (float (after.Serve.Cache.hits - before.Serve.Cache.hits)),
         "share");
        ("cache.evictions",
         float (after.Serve.Cache.evictions - before.Serve.Cache.evictions),
         "count");
        ("service.lookup_ms", ms a.hits (t "service.lookup"), "ms");
        ("service.line_ms", ms a.requests (t "service.line"), "ms");
        ("kernel.meta_ms", ms a.fast_misses (t "kernel.meta"), "ms");
        ("kernel.create_ms", ms a.fast_misses (t "kernel.create"), "ms");
        ("kernel.schedule_ms", ms a.fast_misses (t "kernel.schedule"), "ms");
        ("kernel.schedule_us_per_call",
         1e6 *. per a.calls (t "kernel.schedule"), "us");
        ("kernel.extract_ms", ms a.fast_misses (t "kernel.extract"), "ms");
        ("kernel.positions_per_call_per_v",
         per a.fast_misses a.positions_per_call_per_v, "count");
        ("race.run_ms", ms a.races (t "race.run"), "ms");
        ("race.cancelled", float a.cancelled, "count");
        ("race.winner_time_share",
         (if a.engine_time > 0. then a.winner_time /. a.engine_time else 0.),
         "share");
        ("trace.traced_wall_s", timeline, "s");
        ("trace.untraced_wall_s", untraced_wall, "s");
        ("trace.uncovered_share", (timeline -. request_time) /. timeline,
         "share");
        ("split.kernel_share", share kernel, "share");
        ("split.prepare_share", share (t "service.prepare"), "share");
        ("split.front_share",
         share (sum [ "protocol.parse"; "service.prepare"; "service.line" ]),
         "share");
        ("split.race_share", share (t "race.run"), "share");
      ]
      @ Array.to_list
          (Array.mapi (fun i n -> (n, float a.counts.(i), "count")) count_names)
      @ Hashtbl.fold
          (fun e t acc -> ("race.engine_ms." ^ e, ms a.races t, "ms") :: acc)
          a.engine_ms []
      @ Hashtbl.fold
          (fun e n acc -> ("race.wins." ^ e, float n, "count") :: acc)
          a.wins []
    in
    (* Layer totals in seconds, for the workload-split checks. *)
    let layer_totals =
      [
        ("protocol", t "protocol.parse"); ("prepare", t "service.prepare");
        ("lookup", t "service.lookup"); ("kernel", kernel);
        ("race", t "race.run"); ("emit", t "service.line");
      ]
    in
    let module J = Qor.Json in
    print_endline
      (J.to_string ~minify:true
         (J.Obj
            [
              ( "metrics",
                J.Obj
                  (List.map
                     (fun (k, v, u) -> (k, J.Arr [ J.num v; J.str u ]))
                     metrics) );
              ( "layers_s",
                J.Obj (List.map (fun (k, v) -> (k, J.num v)) layer_totals) );
              ( "info",
                J.Obj
                  [
                    ("requests", J.int a.requests);
                    ("hits", J.int a.hits);
                    ("fast_misses", J.int a.fast_misses);
                    ("race_misses", J.int a.race_misses);
                    ("races_shadowed", J.int a.races);
                    ("csteps_mean", J.num (mean_int a.diameters));
                  ] );
              ("errors", J.Arr (List.rev_map J.str !errors));
            ]))
  | _ ->
    prerr_endline
      "usage: tracer.exe REQUESTS REPLIES SPANS CACHE_CAPACITY PRIME";
    exit 2
