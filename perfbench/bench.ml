(* Workload runner: repetitions, medians and the metric tables that
   BENCHMARK.json names. *)

type better = Lower | Higher

(* End-to-end metrics, printed on every untraced run ([--trace 0]). *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("txn_per_s", "1/s", Higher);
    ("query_per_s", "1/s", Higher);
    ("commit_vt_p50", "vt", Lower);
    ("commit_vt_p99", "vt", Lower);
    ("query_vt_p50", "vt", Lower);
    ("query_vt_p99", "vt", Lower);
    ("staleness_vt_p50", "vt", Lower);
    ("staleness_vt_p99", "vt", Lower);
    ("goodput_vt", "1/kvt", Higher);
    ("ok_frac", "fraction", Higher);
    ("max_versions", "count", Lower);
    ("heap_peak_mb", "MiB", Lower);
    ("update_us_p50", "us", Lower);
    ("query_us_p50", "us", Lower);
  ]

(* Per-layer metrics, printed on every traced run ([--trace 1]).  A layer
   a workload does not exercise reports 0. *)
let per_layer =
  [
    ("sim.events", "count", Lower);
    ("sim.events_per_s", "1/s", Higher);
    ("sim.events_per_txn", "count", Lower);
    ("ocaml.minor_words_per_txn", "words", Lower);
    ("ocaml.major_collections", "count", Lower);
    ("net.messages_per_commit", "count", Lower);
    ("net.envelopes", "count", Lower);
    ("net.rpc_calls", "count", Lower);
    ("net.rpc_timeouts", "count", Lower);
    ("net.rpc_vt_p50", "vt", Lower);
    ("net.rpc_vt_p99", "vt", Lower);
    ("lockmgr.waits", "count", Lower);
    ("lockmgr.wait_vt_per_commit", "vt", Lower);
    ("lockmgr.deadlocks", "count", Lower);
    ("lockmgr.latch_acquisitions", "count", Lower);
    ("wal.forces_per_commit", "count", Lower);
    ("wal.records_per_force", "count", Higher);
    ("vstore.max_versions", "count", Lower);
    ("vstore.mtf_items_copied", "count", Lower);
    ("ava3.aborts_deadlock", "count", Lower);
    ("ava3.aborts_rpc_timeout", "count", Lower);
    ("ava3.aborts_node_down", "count", Lower);
    ("ava3.root_down", "count", Lower);
    ("ava3.mtf_data_access", "count", Lower);
    ("ava3.mtf_commit_time", "count", Lower);
    ("ava3.version_mismatches", "count", Lower);
    ("ava3.advancements", "count", Higher);
    ("ava3.phase1_vt_p99", "vt", Lower);
    ("ava3.phase2_vt_p99", "vt", Lower);
    ("ava3.backup_reads", "count", Higher);
    ("ava3.replica_promotions", "count", Lower);
    ("ava3.replica_demotions", "count", Lower);
    ("vindex.updates_per_commit", "count", Lower);
    ("vindex.candidates_per_result", "count", Lower);
    ("vindex.probes", "count", Lower);
    ("session.attempts_per_commit", "count", Lower);
    ("session.retries", "count", Lower);
    ("session.backoff_vt", "vt", Lower);
    ("session.savepoint_rollbacks", "count", Lower);
    ("session.partial_commits", "count", Lower);
    ("session.unanswered", "count", Lower);
    ("mcore.update_us_p99", "us", Lower);
    ("mcore.query_us_p99", "us", Lower);
    ("mcore.advance_us_p50", "us", Lower);
    ("mcore.advance_us_p99", "us", Lower);
    ("mcore.retries_per_update", "count", Lower);
    ("mcore.latch_acquisitions_per_op", "count", Lower);
    ("n.commit_vt", "count", Higher);
    ("n.query_vt", "count", Higher);
    ("n.staleness_vt", "count", Higher);
    ("trace.spans", "count", Higher);
    ("trace.txn_per_s_untraced", "1/s", Higher);
    ("trace.txn_per_s_traced", "1/s", Higher);
    ("trace.overhead_pct", "%", Lower);
    ("self.client_vt", "vt", Lower);
    ("self.session_vt", "vt", Lower);
    ("self.ava3_vt", "vt", Lower);
    ("self.sim_s", "s", Lower);
    ("self.mcore_s", "s", Lower);
    ("host.nproc", "count", Higher);
    ("host.recommended_domains", "count", Higher);
    ("host.calib_ms", "ms", Lower);
    ("run.domains", "count", Higher);
  ]

(* Per-layer percentiles read from the metrics registry's log2 histograms. *)
let from_histograms =
  [ "net.rpc_vt_p50"; "net.rpc_vt_p99"; "ava3.phase1_vt_p99"; "ava3.phase2_vt_p99" ]

let workloads = [ "oltp"; "analytics"; "failover"; "mcore" ]

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Processor time of the process, user plus system, in seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 Host speed}

   The 2-core host this benchmark was tuned on has phases, lasting from
   seconds to minutes, in which the same work takes up to 1.5 times more
   processor time (a busy sibling thread, a slower clock).  They outlast
   a run, so no estimator inside one run removes them.  So each
   repetition first times [Calib.run], fixed work that uses none of the
   program's code, and its real-time figures are converted to {e
   reference time}: time on a host where [Calib.run] takes [calib_s]
   processor seconds.  Paired repetition by repetition, this removes
   most of the run-to-run spread (README.md has the figures). *)
let calib_s = 0.05

(* How much slower than the reference host this host runs at the moment:
   measured time over reference time. *)
let host_slowness () =
  Gc.compact ();
  let c0 = cpu_s () in
  Calib.run ();
  (cpu_s () -. c0) /. calib_s

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** every metric, both tables *)
  pcts : (string * Stats.pct) list;  (** percentile used and sample count *)
  violations : string list;
  spans : Spans.span list;  (** the first traced repetition *)
  reps : int;
}

(* Heap held by the system under test, in MiB: every word reachable from
   [v] (the cluster or the backend, with what they reference), and none
   of the benchmark's own sample buffers. *)
let system_mb v = float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)) /. 1048576.0

(* A run repeats until [seconds] have passed and at least [at_least]
   repetitions ran.  With tracing, odd repetitions are traced and the
   end-to-end figures come from the untraced ones only. *)
let min_reps = 3

let repeat ~seconds ~at_least f =
  let t0 = now_s () in
  let rec go i acc =
    let acc = f i :: acc in
    if i + 1 >= at_least && now_s () -. t0 >= seconds then List.rev acc else go (i + 1) acc
  in
  go 0 []

(* Spans are exported from the first traced repetition only; later traced
   repetitions record them (so they pay the tracing cost) and drop them. *)
let keep_first () =
  let kept = ref false in
  fun spans ->
    if !kept || spans = [] then []
    else begin
      kept := true;
      spans
    end

(* {1 DES workloads}

   A DES run cycles through [subruns] sub-seeds derived from the seed, one
   per repetition (a traced repetition reuses its untraced partner's), so
   the virtual-time figures pool [subruns] independent runs: they are
   deterministic per seed, and steadier than one run's.  A later
   repetition of a sub-seed must reproduce them exactly.

   The engine is single-threaded, so the timed region and the set-up are
   measured in processor time of the process, not wall time (time the
   host's scheduler or a hypervisor takes the processor away is not
   charged to the program), then converted to reference time.  Rates are
   the median over untraced repetitions: a fastest repetition follows
   how often a rare quiet moment of the host came up. *)
let subruns = 8

type des_rep = {
  d_traced : bool;
  d_slowness : float;
  d_setup : float;
  d_ref : float;  (** reference seconds of the timed run *)
  d_committed : int;
  d_queries : int;
  d_attempted : int;
  d_failed : int;
  d_events : int;
  d_minor_words : float;
  d_major : int;
  d_system_mb : float;
  d_violations : string list;
  d_spans : Spans.span list;
}

(* [firsts.(k)] holds the tally of sub-seed [k]'s first repetition; a
   later repetition is compared with it and its own tally dropped, so the
   benchmark's memory does not grow with the repetition count. *)
let des_rep spec ~seed ~trace ~origin ~keep ~firsts ~mismatch i =
  let traced = trace && i mod 2 = 1 in
  let sub = (if trace then i / 2 else i) mod subruns in
  let slowness = host_slowness () in
  let t0 = cpu_s () in
  let tracer = Spans.create ~enabled:traced () in
  let env = Des.setup spec ~seed:((seed * subruns) + sub) ~tracer in
  Des.spawn_clients env;
  let setup = (cpu_s () -. t0) /. slowness in
  (* Start every timed run from a compacted heap, so one repetition's
     garbage is not collected on the next one's clock. *)
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let w0 = now_s () and c0 = cpu_s () in
  let completed = Des.run env in
  let w1 = now_s () and c1 = cpu_s () in
  let g1 = Gc.quick_stat () in
  let held_mb = system_mb env.Des.db in
  let events = Sim.Engine.events_executed env.Des.engine in
  (* Layer counters of the workload itself, before the checks add theirs. *)
  let tally = Des.tally env in
  if completed then Des.settle env;
  if traced then
    Spans.add tracer ~id:(Spans.fresh_id tracer) ~name:"Engine.run" ~layer:"sim"
      ~clock:Spans.Wall ~parent:(-1) ~trace:0 ~start:((w0 -. origin) *. 1e6)
      ~stop:((w1 -. origin) *. 1e6);
  let o = env.Des.obs in
  (match firsts.(sub) with
  | None -> firsts.(sub) <- Some tally
  | Some first -> if tally <> first then mismatch := true);
  {
    d_traced = traced;
    d_slowness = slowness;
    d_setup = setup;
    d_ref = (c1 -. c0) /. slowness;
    d_committed = o.Des.committed;
    d_queries = o.Des.queries_ok;
    d_attempted = o.Des.txn_attempted + o.Des.query_attempted;
    d_failed = o.Des.txn_failed + o.Des.query_failed + o.Des.unanswered;
    d_events = events;
    d_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    d_major = g1.Gc.major_collections - g0.Gc.major_collections;
    d_system_mb = held_mb;
    d_violations = o.Des.violations;
    d_spans = keep (Spans.spans tracer);
  }

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let med f xs = Stats.median (List.map f xs)
let best f xs = List.fold_left (fun a x -> Float.max a (f x)) neg_infinity xs

let self_metrics spans =
  let rows = Spans.self_times spans in
  let self clock layer =
    List.fold_left
      (fun a (r : Spans.self_row) ->
        if r.s_clock = clock && r.s_layer = layer then a +. r.s_self else a)
      0.0 rows
  in
  [
    ("self.client_vt", self Spans.Virtual "client");
    ("self.session_vt", self Spans.Virtual "session");
    ("self.ava3_vt", self Spans.Virtual "ava3");
    ("self.sim_s", self Spans.Wall "sim" /. 1e6);
    ("self.mcore_s", self Spans.Wall "mcore" /. 1e6);
  ]

let trace_metrics ~stat ~untraced ~traced ~spans =
  let u = stat untraced and t = stat traced in
  [
    ("trace.spans", float_of_int (List.length spans));
    ("trace.txn_per_s_untraced", u);
    ("trace.txn_per_s_traced", t);
    ("trace.overhead_pct", 100.0 *. Stats.ratio (u -. t) u);
  ]
  @ self_metrics spans

let run_des spec ~seed ~seconds ~trace =
  let origin = now_s () in
  let keep = keep_first () in
  let at_least = subruns * if trace then 2 else 1 in
  let firsts = Array.make subruns None and mismatch = ref false in
  let reps = repeat ~seconds ~at_least (des_rep spec ~seed ~trace ~origin ~keep ~firsts ~mismatch) in
  let violations =
    List.concat_map (fun r -> r.d_violations) reps
    @
    if !mismatch then [ "virtual-time figures differ between repetitions of one seed" ]
    else []
  in
  let pcts, layers = Des.figures (Des.pool (List.filter_map Fun.id (Array.to_list firsts))) in
  let plain = List.filter (fun r -> not r.d_traced) reps in
  let fi = float_of_int in
  let tps r = fi r.d_committed /. r.d_ref in
  let pct name = (List.assoc name pcts).Stats.value in
  let n name = fi (List.assoc name pcts).Stats.n in
  let spans = match List.find_opt (fun r -> r.d_traced) reps with Some r -> r.d_spans | None -> [] in
  let attempted = sum (fun r -> r.d_attempted) reps and failed = sum (fun r -> r.d_failed) reps in
  let metrics =
    [
      ("setup_s", med (fun r -> r.d_setup) reps);
      ("txn_per_s", med tps plain);
      ("query_per_s", med (fun r -> fi r.d_queries /. r.d_ref) plain);
      ("commit_vt_p50", pct "commit_vt_p50");
      ("commit_vt_p99", pct "commit_vt_p99");
      ("query_vt_p50", pct "query_vt_p50");
      ("query_vt_p99", pct "query_vt_p99");
      ("staleness_vt_p50", pct "staleness_vt_p50");
      ("staleness_vt_p99", pct "staleness_vt_p99");
      ("ok_frac", 1.0 -. Stats.ratio (fi failed) (fi attempted));
      ("heap_peak_mb", best (fun r -> r.d_system_mb) reps);
      ("update_us_p50", med (fun r -> 1e6 *. r.d_ref /. fi r.d_committed) plain);
      ("query_us_p50", med (fun r -> 1e6 *. r.d_ref /. fi (max 1 r.d_queries)) plain);
      ("sim.events_per_s", med (fun r -> fi r.d_events /. r.d_ref) plain);
      ("ocaml.minor_words_per_txn", med (fun r -> r.d_minor_words /. fi r.d_committed) plain);
      ("ocaml.major_collections", med (fun r -> fi r.d_major) plain);
      ("host.calib_ms", med (fun r -> 1e3 *. calib_s *. r.d_slowness) reps);
      ("n.commit_vt", n "commit_vt_p99");
      ("n.query_vt", n "query_vt_p99");
      ("n.staleness_vt", n "staleness_vt_p99");
    ]
    @ layers
    @
    if trace then
      trace_metrics ~stat:Stats.median ~untraced:(List.map tps plain)
        ~traced:(List.map tps (List.filter (fun r -> r.d_traced) reps))
        ~spans
    else []
  in
  { attempted; failed; metrics; pcts; violations; spans; reps = List.length reps }

(* {1 The mcore workload}

   Sections vary for two reasons: the domains really do race differently
   each time, and the host slows some sections down.  A single fastest
   section would follow the first, the median follows how much of the run
   the host was busy; the run reports the fast quartile, the upper
   quartile of throughputs and the lower quartile of latencies.  The
   section's wall time and its update and query latencies are converted
   to reference time; staleness is not, as the advancement timer, not
   the processor's speed, sets it. *)
let fast_high f xs = Stats.quartile ~upper:true (List.map f xs)
let fast_low f xs = Stats.quartile ~upper:false (List.map f xs)

let rep_seconds = 0.25

type mc_rep = {
  m_traced : bool;
  m_slowness : float;
  m_setup : float;
  m_ref : float;  (** reference seconds of the parallel section *)
  m_committed : int;
  m_queries : int;
  m_attempted : int;
  m_aborted : int;
  m_retries : int;
  m_upd : Stats.pct * Stats.pct;
  m_qry : Stats.pct * Stats.pct;
  m_stale : Stats.pct * Stats.pct;
  m_adv : Workload.Histogram.t;
  m_latches_per_op : float;
  m_advancements : int;
  m_max_versions : int;
  m_system_mb : float;
  m_violations : string list;
  m_spans : Spans.span list;
}


let mc_rep ~seed ~domains ~zipf ~origin ~keep ~traced =
  let slowness = host_slowness () in
  let t0 = cpu_s () in
  let st = Mc.setup () in
  let setup = (cpu_s () -. t0) /. slowness in
  Gc.compact ();
  let wall, doms = Mc.run_rep st ~zipf ~seed ~traced ~domains ~seconds:rep_seconds in
  let held_mb = system_mb st.Mc.backend in
  let violations = Mc.final_checks st @ Array.fold_left (fun a d -> d.Mc.violations @ a) [] doms in
  let all f = Array.fold_left (fun a d -> a + f d) 0 doms in
  let pooled f = Array.fold_left (fun h d -> Workload.Histogram.merge h (f d)) (Workload.Histogram.create ()) doms in
  let ops = all (fun d -> d.Mc.ops) in
  let in_ref ((p50, tail) : Stats.pct * Stats.pct) =
    ({ p50 with value = p50.value /. slowness }, { tail with value = tail.value /. slowness })
  in
  let spans =
    keep
    @@ List.concat_map
         (fun d ->
           List.map
             (fun (s : Spans.span) ->
               { s with start = s.start -. (origin *. 1e6); stop = s.stop -. (origin *. 1e6) })
             (Spans.spans d.Mc.tracer))
         (Array.to_list doms)
  in
  {
    m_traced = traced;
    m_slowness = slowness;
    m_setup = setup;
    m_ref = wall /. slowness;
    m_committed = all (fun d -> d.Mc.committed);
    m_queries = all (fun d -> d.Mc.queries + d.Mc.audits);
    m_attempted = all (fun d -> d.Mc.committed + d.Mc.aborted + d.Mc.queries + d.Mc.audits);
    m_aborted = all (fun d -> d.Mc.aborted);
    m_retries = all (fun d -> d.Mc.retries);
    m_upd = in_ref (Stats.summary (pooled (fun d -> d.Mc.upd)));
    m_qry = in_ref (Stats.summary (pooled (fun d -> d.Mc.qry)));
    m_stale = Stats.summary (pooled (fun d -> d.Mc.stale));
    m_adv = pooled (fun d -> d.Mc.adv);
    m_latches_per_op =
      Stats.ratio (float_of_int (Mcore.Backend.latch_acquisitions st.Mc.backend)) (float_of_int ops);
    m_advancements = Sim.Metrics.total_advancements (Mcore.Backend.metrics st.Mc.backend);
    m_max_versions = Mc.max_versions st;
    m_system_mb = held_mb;
    m_violations = violations;
    m_spans = spans;
  }

let run_mcore ~seed ~seconds ~trace ~domains =
  let origin = now_s () in
  let zipf = Workload.Zipf.create ~n:Mc.pairs ~theta:Mc.theta in
  let keep = keep_first () in
  let at_least = min_reps * if trace then 2 else 1 in
  let reps =
    repeat ~seconds ~at_least (fun i ->
        mc_rep ~seed ~domains ~zipf ~origin ~keep ~traced:(trace && i mod 2 = 1))
  in
  let plain = List.filter (fun r -> not r.m_traced) reps in
  let fi = float_of_int in
  let tps r = fi r.m_committed /. r.m_ref in
  let v (p : Stats.pct) = p.Stats.value in
  let attempted = sum (fun r -> r.m_attempted) reps and failed = sum (fun r -> r.m_aborted) reps in
  let spans = match List.find_opt (fun r -> r.m_traced) reps with Some r -> r.m_spans | None -> [] in
  let adv =
    Stats.summary (List.fold_left (fun h r -> Workload.Histogram.merge h r.m_adv) (Workload.Histogram.create ()) plain)
  in
  let first = List.hd plain in
  let metrics =
    [
      ("setup_s", med (fun r -> r.m_setup) reps);
      ("txn_per_s", fast_high tps plain);
      ("query_per_s", fast_high (fun r -> fi r.m_queries /. r.m_ref) plain);
      ("commit_vt_p50", fast_low (fun r -> v (fst r.m_upd)) plain);
      ("commit_vt_p99", fast_low (fun r -> v (snd r.m_upd)) plain);
      ("query_vt_p50", fast_low (fun r -> v (fst r.m_qry)) plain);
      ("query_vt_p99", fast_low (fun r -> v (snd r.m_qry)) plain);
      ("staleness_vt_p50", fast_low (fun r -> v (fst r.m_stale)) plain);
      ("staleness_vt_p99", fast_low (fun r -> v (snd r.m_stale)) plain);
      ("goodput_vt", fast_high (fun r -> 1000.0 *. fi r.m_committed /. (r.m_ref *. 1e6)) plain);
      ("ok_frac", 1.0 -. Stats.ratio (fi failed) (fi attempted));
      ("max_versions", fi (List.fold_left (fun a r -> max a r.m_max_versions) 0 reps));
      ("heap_peak_mb", best (fun r -> r.m_system_mb) reps);
      ("update_us_p50", fast_low (fun r -> v (fst r.m_upd)) plain);
      ("query_us_p50", fast_low (fun r -> v (fst r.m_qry)) plain);
      ("mcore.update_us_p99", fast_low (fun r -> v (snd r.m_upd)) plain);
      ("mcore.query_us_p99", fast_low (fun r -> v (snd r.m_qry)) plain);
      ("mcore.advance_us_p50", v (fst adv));
      ("mcore.advance_us_p99", v (snd adv));
      ("mcore.retries_per_update", med (fun r -> Stats.ratio (fi r.m_retries) (fi r.m_committed)) plain);
      ("mcore.latch_acquisitions_per_op", med (fun r -> r.m_latches_per_op) plain);
      ("host.calib_ms", med (fun r -> 1e3 *. calib_s *. r.m_slowness) reps);
      ("ava3.advancements", med (fun r -> fi r.m_advancements) plain);
      ("vstore.max_versions", fi (List.fold_left (fun a r -> max a r.m_max_versions) 0 reps));
      ("n.commit_vt", fi (snd first.m_upd).Stats.n);
      ("n.query_vt", fi (snd first.m_qry).Stats.n);
      ("n.staleness_vt", fi (snd first.m_stale).Stats.n);
    ]
    @ (if trace then
         trace_metrics ~stat:(Stats.quartile ~upper:true) ~untraced:(List.map tps plain)
           ~traced:(List.map tps (List.filter (fun r -> r.m_traced) reps))
           ~spans
       else [])
  in
  {
    attempted;
    failed;
    metrics;
    pcts =
      [
        ("commit_vt_p50", fst first.m_upd);
        ("commit_vt_p99", snd first.m_upd);
        ("query_vt_p50", fst first.m_qry);
        ("query_vt_p99", snd first.m_qry);
        ("staleness_vt_p50", fst first.m_stale);
        ("staleness_vt_p99", snd first.m_stale);
        ("mcore.advance_us_p99", snd adv);
      ];
    violations = List.concat_map (fun r -> r.m_violations) reps;
    spans;
    reps = List.length reps;
  }

(* {1 Entry point} *)

let run ~workload ~seed ~seconds ~trace ~domains =
  match workload with
  | "mcore" -> run_mcore ~seed ~seconds ~trace ~domains
  | name -> (
      match List.find_opt (fun s -> s.Des.name = name) Des.specs with
      | Some spec -> run_des spec ~seed ~seconds ~trace
      | None -> invalid_arg ("unknown workload " ^ name))

(* The metrics of one table, in table order; a metric the workload does
   not produce (an idle layer) reads 0. *)
let table ~trace (r : result) =
  let names = if trace then per_layer else end_to_end in
  List.map
    (fun (name, unit, _) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name r.metrics), unit))
    names

let result_json ~trace r =
  Json.Obj
    [
      ("correct", Json.Bool (r.violations = []));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, value, unit) ->
               (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
             (table ~trace r)) );
    ]
