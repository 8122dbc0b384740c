open Import

(* The service's runtime metrics plane: per-request phase latencies in
   log-bucketed histograms, point-in-time gauges for the pool/daemon/
   cache, cumulative outcome counters, and a threshold-gated slow-
   request log. One mutex guards the lot — recording a finished request
   is six histogram inserts and a few integer bumps under one lock,
   cheap next to the microseconds even a warm request costs.

   Request threads fill in a [span] as the request moves through the
   layers (daemon/batch: parse/prepare/queue/emit, service: cache
   lookup/schedule)
   and hand it to [record] exactly once, so every histogram counts each
   request exactly once and the phase breakdown sums to the work done.

   Snapshots export the same data two ways: a JSON object (the [stats]
   admin reply and [--metrics-file]) and Prometheus text exposition
   ([--metrics-file]'s sibling .prom dump). *)

module H = Telemetry.Histogram
module G = Telemetry.Gauge

(* Per-request phase timings, in nanoseconds. Mutable so each layer adds
   its own phase as the request passes through; the pool future's mutex
   orders the worker's writes before the daemon thread's read. *)
type span = {
  mutable parse_ns : int;  (* NDJSON line -> request *)
  mutable prepare_ns : int;  (* request -> cache key (graph, fingerprint) *)
  mutable lookup_ns : int;  (* cache find *)
  mutable queue_ns : int;  (* pool submit -> job start *)
  mutable schedule_ns : int;  (* the scheduler proper, 0 on a warm hit *)
  mutable emit_ns : int;  (* response rendering *)
  mutable total_ns : int;  (* request wall clock (sum of phases in batch) *)
}

let span () =
  {
    parse_ns = 0;
    prepare_ns = 0;
    lookup_ns = 0;
    queue_ns = 0;
    schedule_ns = 0;
    emit_ns = 0;
    total_ns = 0;
  }

type slow_log = {
  threshold_ms : float;
  slow_oc : out_channel;
  owns_channel : bool;  (* close on re-target; stderr is never closed *)
}

type t = {
  lock : Mutex.t;
  started_at : float;
  (* histograms, one per phase, nanoseconds *)
  h_parse : H.t;
  h_prepare : H.t;
  h_lookup : H.t;
  h_queue : H.t;
  h_schedule : H.t;
  h_emit : H.t;
  h_total : H.t;
  (* gauges *)
  g_queue_depth : G.t;
  g_in_flight : G.t;
  g_connections : G.t;
  g_cache_entries : G.t;
  g_cache_capacity : G.t;
  (* cumulative counters *)
  mutable requests : int;
  mutable ok : int;
  mutable errors : int;
  mutable cached : int;
  mutable degraded : int;
  mutable busy_turnaways : int;
  mutable slow : int;
  mutable slow_log : slow_log option;
  (* per-engine outcome counters: how often each portfolio engine ran
     to completion, and how often it won a race (the race-win
     histogram). Keyed by canonical engine name. *)
  engine_runs : (string, int) Hashtbl.t;
  race_wins : (string, int) Hashtbl.t;
  mutable races : int;
}

let create () =
  {
    lock = Mutex.create ();
    started_at = Unix.gettimeofday ();
    h_parse = H.create ();
    h_prepare = H.create ();
    h_lookup = H.create ();
    h_queue = H.create ();
    h_schedule = H.create ();
    h_emit = H.create ();
    h_total = H.create ();
    g_queue_depth = G.create ();
    g_in_flight = G.create ();
    g_connections = G.create ();
    g_cache_entries = G.create ();
    g_cache_capacity = G.create ();
    requests = 0;
    ok = 0;
    errors = 0;
    cached = 0;
    degraded = 0;
    busy_turnaways = 0;
    slow = 0;
    slow_log = None;
    engine_runs = Hashtbl.create 8;
    race_wins = Hashtbl.create 8;
    races = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* -- gauge updates (single word stores; the lock is not needed) ------- *)

let set_pool_queue_depth t n = G.set_int t.g_queue_depth n
let set_connections t n = G.set_int t.g_connections n
let add_in_flight t d = G.add t.g_in_flight (float_of_int d)

let set_cache_occupancy t ~entries ~capacity =
  G.set_int t.g_cache_entries entries;
  G.set_int t.g_cache_capacity capacity

(* -- slow-request log ------------------------------------------------- *)

let close_slow_log_locked t =
  match t.slow_log with
  | Some s ->
    if s.owns_channel then close_out_noerr s.slow_oc else flush s.slow_oc;
    t.slow_log <- None
  | None -> ()

let set_slow_log t ?(threshold_ms = 100.0) target =
  with_lock t (fun () ->
      close_slow_log_locked t;
      let slow_oc, owns_channel =
        match target with
        | `Stderr -> (stderr, false)
        | `File path ->
          (open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 path, true)
      in
      t.slow_log <- Some { threshold_ms; slow_oc; owns_channel })

let close_slow_log t = with_lock t (fun () -> close_slow_log_locked t)

let ms ns = float_of_int ns /. 1e6

let slow_line ~trace ~design ~status ~cached ~degraded (sp : span) =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("ts", Json.num (Unix.gettimeofday ()));
         ("trace", Json.str trace);
         ("design", Json.str design);
         ("status", Json.str status);
         ("cached", Json.Bool cached);
         ("degraded", Json.Bool degraded);
         ("total_ms", Json.num (ms sp.total_ns));
         ("parse_ms", Json.num (ms sp.parse_ns));
         ("prepare_ms", Json.num (ms sp.prepare_ns));
         ("cache_lookup_ms", Json.num (ms sp.lookup_ns));
         ("queue_ms", Json.num (ms sp.queue_ns));
         ("schedule_ms", Json.num (ms sp.schedule_ns));
         ("emit_ms", Json.num (ms sp.emit_ns));
       ])

(* -- recording -------------------------------------------------------- *)

let record t ~trace ~design ~ok:is_ok ~cached ~degraded (sp : span) =
  with_lock t (fun () ->
      t.requests <- t.requests + 1;
      if is_ok then t.ok <- t.ok + 1 else t.errors <- t.errors + 1;
      if cached then t.cached <- t.cached + 1;
      if degraded then t.degraded <- t.degraded + 1;
      H.record t.h_parse sp.parse_ns;
      H.record t.h_prepare sp.prepare_ns;
      H.record t.h_lookup sp.lookup_ns;
      H.record t.h_queue sp.queue_ns;
      H.record t.h_schedule sp.schedule_ns;
      H.record t.h_emit sp.emit_ns;
      H.record t.h_total sp.total_ns;
      match t.slow_log with
      | Some s when ms sp.total_ns >= s.threshold_ms ->
        t.slow <- t.slow + 1;
        let line =
          slow_line ~trace ~design
            ~status:(if is_ok then "ok" else "error")
            ~cached ~degraded sp
        in
        output_string s.slow_oc line;
        output_char s.slow_oc '\n';
        flush s.slow_oc
      | Some _ | None -> ())

let turned_away t = with_lock t (fun () -> t.busy_turnaways <- t.busy_turnaways + 1)

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let engine_run t ~engine = with_lock t (fun () -> bump t.engine_runs engine)

let race_win t ~engine =
  with_lock t (fun () ->
      t.races <- t.races + 1;
      bump t.race_wins engine)

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Back-off hint for turned-away clients: the median request latency
   scaled by the work already queued ahead of them. With no history yet
   there is nothing to extrapolate from — suggest a flat 50ms. *)
let retry_after_ms t ~queue_depth =
  with_lock t (fun () ->
      if H.is_empty t.h_total then 50
      else
        let p50_ms = ms (H.percentile t.h_total 50.0) in
        let hint = p50_ms *. float_of_int (queue_depth + 1) in
        let hint = int_of_float (ceil hint) in
        if hint < 25 then 25 else if hint > 5000 then 5000 else hint)

(* -- snapshots -------------------------------------------------------- *)

let phases t =
  [
    ("parse", t.h_parse);
    ("prepare", t.h_prepare);
    ("cache_lookup", t.h_lookup);
    ("queue_wait", t.h_queue);
    ("schedule", t.h_schedule);
    ("emit", t.h_emit);
    ("total", t.h_total);
  ]

let histogram_ms_json h =
  Json.Obj
    [
      ("count", Json.int (H.count h));
      ("mean", Json.num (H.mean h /. 1e6));
      ("p50", Json.num (ms (H.percentile h 50.0)));
      ("p90", Json.num (ms (H.percentile h 90.0)));
      ("p95", Json.num (ms (H.percentile h 95.0)));
      ("p99", Json.num (ms (H.percentile h 99.0)));
      ("max", Json.num (ms (H.max_value h)));
    ]

let gauge_json g = Json.num (G.get g)

let snapshot_json ?cache t =
  with_lock t (fun () ->
      let requests =
        Json.Obj
          [
            ("total", Json.int t.requests);
            ("ok", Json.int t.ok);
            ("errors", Json.int t.errors);
            ("cached", Json.int t.cached);
            ("degraded", Json.int t.degraded);
            ("busy_turnaways", Json.int t.busy_turnaways);
            ("slow", Json.int t.slow);
          ]
      in
      let latency =
        Json.Obj
          (List.map (fun (name, h) -> (name, histogram_ms_json h)) (phases t))
      in
      let gauges =
        Json.Obj
          [
            ("pool_queue_depth", gauge_json t.g_queue_depth);
            ("in_flight_requests", gauge_json t.g_in_flight);
            ("connections", gauge_json t.g_connections);
            ("cache_entries", gauge_json t.g_cache_entries);
            ("cache_capacity", gauge_json t.g_cache_capacity);
          ]
      in
      let engines =
        (* Union of the two key sets, sorted, so a race loser that never
           won still shows its run count. *)
        let names =
          List.sort_uniq compare
            (List.map fst (sorted_counts t.engine_runs)
            @ List.map fst (sorted_counts t.race_wins))
        in
        Json.Obj
          (List.map
             (fun name ->
               let count tbl =
                 Option.value ~default:0 (Hashtbl.find_opt tbl name)
               in
               ( name,
                 Json.Obj
                   [
                     ("runs", Json.int (count t.engine_runs));
                     ("race_wins", Json.int (count t.race_wins));
                   ] ))
             names)
      in
      let base =
        [
          ("uptime_s", Json.num (Unix.gettimeofday () -. t.started_at));
          ("requests", requests);
          ("latency_ms", latency);
          ("races", Json.int t.races);
          ("engines", engines);
          ("gauges", gauges);
        ]
      in
      let cache_field =
        match cache with
        | None -> []
        | Some (s : Cache.stats) ->
          [
            ( "cache",
              Json.Obj
                [
                  ("hits", Json.int s.hits);
                  ("misses", Json.int s.misses);
                  ("evictions", Json.int s.evictions);
                  ("entries", Json.int s.length);
                  ("capacity", Json.int s.capacity);
                  ("shards", Json.int s.shards);
                ] );
          ]
      in
      Json.Obj (base @ cache_field))

(* Prometheus text exposition format, one histogram family with a
   [phase] label, buckets in seconds. Cumulative bucket counts walk the
   log buckets in ascending order and close with +Inf == _count, which
   is what makes the output valid for a scraper. *)
let to_prometheus ?cache t =
  with_lock t (fun () ->
      let b = Buffer.create 4096 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
      let sec ns = float_of_int ns /. 1e9 in
      line "# HELP softsched_uptime_seconds Seconds since the service started.";
      line "# TYPE softsched_uptime_seconds gauge";
      line "softsched_uptime_seconds %.3f" (Unix.gettimeofday () -. t.started_at);
      let counter name help v =
        line "# HELP %s %s" name help;
        line "# TYPE %s counter" name;
        line "%s %d" name v
      in
      counter "softsched_requests_total" "Requests answered." t.requests;
      counter "softsched_request_errors_total" "Requests answered with an error."
        t.errors;
      counter "softsched_requests_cached_total"
        "Requests served from the fingerprint cache." t.cached;
      counter "softsched_requests_degraded_total"
        "Requests whose deadline overran (fast-placed tail)." t.degraded;
      counter "softsched_busy_turnaways_total"
        "Connections turned away at the connection cap." t.busy_turnaways;
      counter "softsched_slow_requests_total"
        "Requests over the slow-log threshold." t.slow;
      counter "softsched_races_total" "Engine races run." t.races;
      let labelled name help tbl =
        if Hashtbl.length tbl > 0 then begin
          line "# HELP %s %s" name help;
          line "# TYPE %s counter" name;
          List.iter
            (fun (engine, v) -> line "%s{engine=%S} %d" name engine v)
            (sorted_counts tbl)
        end
      in
      labelled "softsched_engine_runs_total"
        "Completed scheduling runs, by engine." t.engine_runs;
      labelled "softsched_race_wins_total"
        "Races won (Qor.Diff order), by engine." t.race_wins;
      let gauge name help g =
        line "# HELP %s %s" name help;
        line "# TYPE %s gauge" name;
        line "%s %g" name (G.get g)
      in
      gauge "softsched_pool_queue_depth" "Jobs waiting in the worker pool."
        t.g_queue_depth;
      gauge "softsched_in_flight_requests" "Requests currently being processed."
        t.g_in_flight;
      gauge "softsched_connections" "Live daemon connections." t.g_connections;
      gauge "softsched_cache_entries" "Fingerprint-cache entries."
        t.g_cache_entries;
      gauge "softsched_cache_capacity" "Fingerprint-cache capacity."
        t.g_cache_capacity;
      (match cache with
      | None -> ()
      | Some (s : Cache.stats) ->
        counter "softsched_cache_hits_total" "Fingerprint-cache hits." s.hits;
        counter "softsched_cache_misses_total" "Fingerprint-cache misses."
          s.misses;
        counter "softsched_cache_evictions_total" "Fingerprint-cache evictions."
          s.evictions);
      line
        "# HELP softsched_request_phase_seconds Per-phase request latency \
         (log-bucketed).";
      line "# TYPE softsched_request_phase_seconds histogram";
      List.iter
        (fun (phase, h) ->
          let cum =
            H.fold_buckets h ~init:0 ~f:(fun cum ~upper ~count ->
                let cum = cum + count in
                line
                  "softsched_request_phase_seconds_bucket{phase=%S,le=\"%.9g\"} \
                   %d"
                  phase (sec upper) cum;
                cum)
          in
          ignore cum;
          line
            "softsched_request_phase_seconds_bucket{phase=%S,le=\"+Inf\"} %d"
            phase (H.count h);
          line "softsched_request_phase_seconds_sum{phase=%S} %.9g" phase
            (sec (H.sum h));
          line "softsched_request_phase_seconds_count{phase=%S} %d" phase
            (H.count h))
        (phases t);
      Buffer.contents b)

(* Human-readable latency table, printed by [batch --stats] and the
   daemon's drain summary. *)
let summary t =
  with_lock t (fun () ->
      let b = Buffer.create 512 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
      line "service metrics: %d requests (%d ok, %d errors, %d cached, %d \
            degraded, %d turned away)"
        t.requests t.ok t.errors t.cached t.degraded t.busy_turnaways;
      if Hashtbl.length t.engine_runs > 0 then
        line "  engines (%d races): %s" t.races
          (String.concat ", "
             (List.map
                (fun (name, runs) ->
                  let wins =
                    Option.value ~default:0 (Hashtbl.find_opt t.race_wins name)
                  in
                  if wins > 0 then
                    Printf.sprintf "%s %d runs (%d wins)" name runs wins
                  else Printf.sprintf "%s %d runs" name runs)
                (sorted_counts t.engine_runs)));
      line "  %-14s %8s %10s %10s %10s %10s" "phase (ms)" "count" "p50" "p90"
        "p99" "max";
      List.iter
        (fun (phase, h) ->
          if not (H.is_empty h) then
            line "  %-14s %8d %10.3f %10.3f %10.3f %10.3f" phase (H.count h)
              (ms (H.percentile h 50.0))
              (ms (H.percentile h 90.0))
              (ms (H.percentile h 99.0))
              (ms (H.max_value h)))
        (phases t);
      Buffer.contents b)
