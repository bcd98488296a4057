module Update = Ava3.Update_exec
module Driver = Workload.Driver
module Histogram = Workload.Histogram
module Keyspace = Workload.Keyspace

(* Every run below builds its own engine, RNG, keyspace and store, so the
   sweeps are share-nothing and fan out across domains via [Sim.Pool.map]
   (gated by AVA3_DOMAINS; results come back in input order, so the
   printed tables are identical at any domain count). *)
let pmap = Sim.Pool.map

(* ------------------------------------------------------------------ *)
(* Shared scaffolding                                                  *)
(* ------------------------------------------------------------------ *)

(* One Driver workload over a loaded [Db_intf.DB]: a fresh engine, the
   database [make] builds on it, every key of [keyspace] handed to [load]
   with value 0, then a split of the engine's stream drives [spec].
   [before] runs just before [Driver.run] with that stream (E3 schedules
   its probes there).  [split_first] splits the workload stream off
   before [make] runs — E14's order, which its rows depend on.  The
   database's metrics land in the sink under [experiment]/[label]. *)
let drive (type db) (module Db : Workload.Db_intf.DB with type t = db) ~seed
    ~(make : Sim.Engine.t -> db)
    ~(load : db -> node:int -> (string * int) list -> unit) ~keyspace ~spec
    ?(before = fun _ _ _ -> ()) ?(split_first = false) ~experiment ~label () =
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let split () = Sim.Rng.split (Sim.Engine.rng engine) in
  let early = if split_first then Some (split ()) else None in
  let db = make engine in
  for n = 0 to Keyspace.nodes keyspace - 1 do
    load db ~node:n (List.map (fun k -> (k, 0)) (Keyspace.all_keys keyspace ~node:n))
  done;
  let rng = match early with Some rng -> rng | None -> split () in
  before engine db rng;
  let report = Driver.run (module Db) db ~engine ~rng ~keyspace ~spec in
  Option.iter (Report.record_metrics ~experiment ~label) (Db.metrics_snapshot db);
  (db, report)

(* [drive] on the AVA3 adapter, returning its cluster. *)
let drive_ava3 ?(load = Baseline.Ava3_db.load) ?before ?split_first ~seed ~make
    ~keyspace ~spec ~experiment ~label () =
  let db, report =
    drive (module Baseline.Ava3_db) ~seed ~make ~load ~keyspace ~spec ?before
      ?split_first ~experiment ~label ()
  in
  (Baseline.Ava3_db.cluster db, report)

(* What a fault-injected run (E10, E13, E15) observed besides its
   clients' own counts. *)
type faulted = {
  stats : Ava3.Cluster.stats;
  violations : int;  (** invariant probe hits, plus one for a stalled run *)
  max_gap : float;  (** longest probe-observed gap between advancements *)
}

(* The fault-injected runs share one harness.  It installs [plan], then
   every [beat] up to [horizon] lets [initiator] pick a coordinator; by
   default that is the first partition whose primary is alive, and when a
   coordinator dies mid-round the same beat re-initiates the stalled round
   through the §3.2 path.  Then [workload] schedules the clients, and the
   §6.2 invariants are probed at the [probes] instants, which also track
   the longest gap between advancement completions.  The run ends by
   [until] (a livelock wall) or when it drains, and is probed once more;
   metrics land in the sink under [experiment]/[label]. *)
let under_faults ~engine db ~plan ~beat ~horizon ?initiator ~workload ~probes
    ?until ~experiment ~label () =
  Net.Nemesis.install ~engine (Ava3.Cluster.nemesis_target db) plan;
  let first_alive _ =
    let cs = Ava3.Cluster.state db in
    let rec go p =
      if p >= Ava3.Cluster.partitions db then None
      else if
        Ava3.Node_state.alive
          (Ava3.Cluster.node db (Ava3.Cluster_state.home_site cs p))
      then Some p
      else go (p + 1)
    in
    go 0
  in
  let initiator = Option.value initiator ~default:first_alive in
  for b = 1 to int_of_float (horizon /. beat) do
    Sim.Engine.schedule engine ~delay:(float_of_int b *. beat) (fun () ->
        match initiator b with
        | Some k ->
            ignore
              (Ava3.Cluster.advance db ~coordinator:k : [ `Started of int | `Busy ])
        | None -> ())
  done;
  workload ();
  let violations = ref 0 and max_gap = ref 0.0 in
  let last_completion = ref 0.0 and last_count = ref 0 in
  let probe () =
    violations := !violations + List.length (Ava3.Cluster.check_invariants db)
  in
  List.iter
    (fun at ->
      Sim.Engine.schedule engine ~delay:at (fun () ->
          probe ();
          let c = (Ava3.Cluster.stats db).Ava3.Cluster.advancements in
          let now = Sim.Engine.now engine in
          if c > !last_count then begin
            last_count := c;
            last_completion := now
          end
          else if now -. !last_completion > !max_gap then
            max_gap := now -. !last_completion))
    probes;
  Sim.Engine.run ?until engine;
  let stalled = Sim.Engine.pending_events engine > 0 in
  probe ();
  Report.record_metrics ~experiment ~label (Ava3.Cluster.metrics_snapshot db);
  {
    stats = Ava3.Cluster.stats db;
    violations = (!violations + if stalled then 1 else 0);
    max_gap = !max_gap;
  }

(* Client-side counts of a fault-injected run. *)
type tally = {
  mutable ok : int;
  mutable failed : int;
  mutable timeouts : int;  (** attempts that ended in an RPC timeout *)
  mutable q_ok : int;
  mutable q_failed : int;
  stale : Histogram.t;  (** observed snapshot age per completed query *)
}

let tally () =
  { ok = 0; failed = 0; timeouts = 0; q_ok = 0; q_failed = 0; stale = Histogram.create () }

(* ------------------------------------------------------------------ *)
(* E3 — §6.2 invariants under load                                     *)
(* ------------------------------------------------------------------ *)

type invariants_run = {
  probes : int;
  violations : int;
  max_versions_ever : int;
  advancements : int;
  commits : int;
  queries : int;
}

let invariants ?(seed = 17L) ~nodes ~duration () =
  let probes = ref 0 and violations = ref 0 in
  let probe cluster () =
    incr probes;
    violations := !violations + List.length (Ava3.Cluster.check_invariants cluster)
  in
  let cluster, report =
    drive_ava3 ~seed
      ~make:(fun engine ->
        Baseline.Ava3_db.create ~engine ~advancement_period:(duration /. 12.0)
          ~advancement_until:duration ~nodes ())
      ~keyspace:(Keyspace.create ~nodes ~keys_per_node:80 ~theta:0.8)
        (* Load scales with the cluster so bigger topologies do more work. *)
      ~spec:
        {
          Driver.default_spec with
          duration;
          update_rate = 0.12 *. float_of_int nodes;
          query_rate = 0.06 *. float_of_int nodes;
          ops_per_update = (2, 4);
          long_query_period = duration /. 8.0;
          long_query_reads = 40;
        }
      ~before:(fun engine db rng ->
        (* Probe the invariants at random instants while the workload runs. *)
        for _ = 1 to 200 do
          let delay = Sim.Rng.float rng duration in
          Sim.Engine.schedule engine ~delay (probe (Baseline.Ava3_db.cluster db))
        done)
      ~experiment:"E3-invariants"
      ~label:(Printf.sprintf "nodes=%d" nodes)
      ()
  in
  probe cluster ();
  violations :=
    !violations + List.length (Ava3.Cluster.check_quiescent_invariants cluster);
  let stats = Ava3.Cluster.stats cluster in
  {
    probes = !probes;
    violations = !violations;
    max_versions_ever = stats.Ava3.Cluster.max_versions_ever;
    advancements = stats.Ava3.Cluster.advancements;
    commits = report.Driver.committed;
    queries = report.Driver.queries_ok;
  }

let e3 : (int * invariants_run) Report.table =
  {
    title = "E3: §6.2 invariants under random load";
    columns =
      Report.
        [
          i "nodes" fst;
          i "probes" (fun (_, r) -> r.probes);
          i "violations" (fun (_, r) -> r.violations);
          i "max-versions" (fun (_, r) -> r.max_versions_ever);
          i "advancements" (fun (_, (r : invariants_run)) -> r.advancements);
          i "commits" (fun (_, r) -> r.commits);
          i "queries" (fun (_, r) -> r.queries);
        ];
  }

let print_invariants () =
  Report.print e3
    (pmap (fun nodes -> (nodes, invariants ~nodes ~duration:1500.0 ())) [ 1; 3; 5 ])

(* ------------------------------------------------------------------ *)
(* E4 — staleness                                                      *)
(* ------------------------------------------------------------------ *)

type staleness_point = {
  period : float;
  eager : bool;
  mean_staleness : float;
  p95_staleness : float;
  max_staleness : float;
  advancements_done : int;
}

let staleness_one ~seed ~period ~eager =
  let duration = 2000.0 in
  let cluster, report =
    drive_ava3 ~seed
      ~make:(fun engine ->
        Baseline.Ava3_db.create ~engine
          ~config:{ Ava3.Config.default with eager_counter_handoff = eager }
          ~advancement_period:period ~advancement_until:duration ~nodes:3 ())
      ~keyspace:(Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.8)
      ~spec:
        {
          Driver.default_spec with
          duration;
          update_rate = 0.2;
          query_rate = 0.25;
          ops_per_update = (2, 4);
        }
      ~experiment:"E4-staleness"
      ~label:(Printf.sprintf "period=%g eager=%b" period eager)
      ()
  in
  let h = report.Driver.staleness in
  {
    period;
    eager;
    mean_staleness = Histogram.mean h;
    p95_staleness = Histogram.percentile h 0.95;
    max_staleness = Histogram.max_value h;
    advancements_done = (Ava3.Cluster.stats cluster).Ava3.Cluster.advancements;
  }

let staleness_sweep ?(seed = 23L) ?(periods = [ 25.0; 50.0; 100.0; 200.0; 400.0 ])
    ?domains ~eager () =
  pmap ?domains (fun period -> staleness_one ~seed ~period ~eager) periods

type staleness_bound = {
  long_txn_duration : float;
  publish_lag_plain : float;
  publish_lag_eager : float;
}

(* Measure the lag between advancement start and queries first seeing the
   new version, with one long update transaction active at advancement
   start.  Figure 1's Phase-1 bound; §8 claims the eager hand-off removes
   it. *)
let publish_lag ~seed ~long_txn_duration ~eager =
  let config =
    {
      Ava3.Config.default with
      eager_counter_handoff = eager;
      write_service_time = 0.0;
    }
  in
  let engine = Sim.Engine.create ~seed () in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes:3 ()
  in
  Ava3.Cluster.load db ~node:0 [ ("a", 0); ("b", 0) ];
  let started = ref nan and published = ref nan in
  Sim.Engine.schedule engine ~delay:5.0 (fun () ->
      ignore
        (Ava3.Cluster.run_update db ~root:0
           ~ops:
             [
               Update.Write { node = 0; key = "a"; value = 1 };
               Update.Pause (long_txn_duration /. 4.0);
               (* Touching b (committed in the new version below) triggers
                  the moveToFuture that the eager hand-off exploits. *)
               Update.Write { node = 0; key = "b"; value = 1 };
               Update.Pause (0.75 *. long_txn_duration);
             ]));
  Sim.Engine.schedule engine ~delay:10.0 (fun () ->
      started := Sim.Engine.now engine;
      ignore (Ava3.Cluster.advance db ~coordinator:2));
  Sim.Engine.schedule engine ~delay:12.0 (fun () ->
      ignore
        (Ava3.Cluster.run_update db ~root:0
           ~ops:[ Update.Write { node = 0; key = "b"; value = 2 } ]));
  (* Poll with tiny queries until one reads version 1. *)
  let probe at =
    if at < 10_000.0 then
      Sim.Engine.schedule engine ~delay:at (fun () ->
          if Float.is_nan !published then begin
            let q = Ava3.Cluster.run_query db ~root:1 ~reads:[] in
            if q.Ava3.Query_exec.version >= 1 then
              published := Sim.Engine.now engine
          end)
  in
  let rec schedule at =
    if at < 200.0 then begin
      probe at;
      schedule (at +. 1.0)
    end
  in
  schedule 11.0;
  Sim.Engine.run engine;
  Report.record_metrics ~experiment:"E4b-publish-lag"
    ~label:(Printf.sprintf "eager=%b" eager)
    (Ava3.Cluster.metrics_snapshot db);
  !published -. !started

let staleness_bound ?(seed = 29L) ?(long_txn_duration = 100.0) () =
  match
    pmap (fun eager -> publish_lag ~seed ~long_txn_duration ~eager) [ false; true ]
  with
  | [ publish_lag_plain; publish_lag_eager ] ->
      { long_txn_duration; publish_lag_plain; publish_lag_eager }
  | _ -> assert false

(* §8 limiting mode: advancements run back to back (overlapping GC), so a
   query's snapshot is stale by at most roughly the age of the longest query
   running when it started — here, the query duration itself. *)
let continuous_one ~seed ~query_duration =
  let duration = 1500.0 in
  let read_service = 0.5 in
  let reads_per_query = max 1 (int_of_float (query_duration /. read_service)) in
  let config =
    {
      Ava3.Config.default with
      overlap_gc = true;
      eager_counter_handoff = true;
      read_service_time = read_service;
    }
  in
  let cluster, report =
    drive_ava3 ~seed
      ~make:(fun engine ->
        let db =
          Baseline.Ava3_db.create ~engine ~config ~advancement_period:0.0 ~nodes:3 ()
        in
        Ava3.Cluster.start_continuous_advancement (Baseline.Ava3_db.cluster db)
          ~coordinator:0 ~until:duration;
        db)
      ~keyspace:(Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.8)
      ~spec:
        {
          Driver.default_spec with
          duration;
          update_rate = 0.15;
          query_rate = 0.1;
          ops_per_update = (1, 3);
          reads_per_query = (reads_per_query, reads_per_query);
        }
      ~experiment:"E4c-continuous"
      ~label:(Printf.sprintf "query_duration=%g" query_duration)
      ()
  in
  (Ava3.Cluster.stats cluster, report)

let e4a : staleness_point Report.table =
  {
    title = "E4a: query staleness vs advancement period (AVA3, 3 nodes)";
    columns =
      Report.
        [
          f1 "period" (fun p -> p.period);
          yes_no "eager" (fun p -> p.eager);
          f1 "mean" (fun p -> p.mean_staleness);
          f1 "p95" (fun p -> p.p95_staleness);
          f1 "max" (fun p -> p.max_staleness);
          i "advancements" (fun p -> p.advancements_done);
        ];
  }

let e4b : staleness_bound Report.table =
  {
    title =
      "E4b: publish lag with one long update transaction (bound: txn \
       duration; §8 optimisation removes it)";
    columns =
      Report.
        [
          f1 "long txn" (fun b -> b.long_txn_duration);
          f1 "lag (base)" (fun b -> b.publish_lag_plain);
          f1 "lag (eager hand-off)" (fun b -> b.publish_lag_eager);
        ];
  }

(* Report the measured query duration — remote reads add network latency
   on top of the nominal storage time. *)
let e4c : (Ava3.Cluster.stats * Driver.report) Report.table =
  {
    title =
      "E4c: continuous advancement (§8 limit) — staleness bounded by the \
       longest concurrent query";
    columns =
      Report.
        [
          f1 "query duration (measured)" (fun (_, r) ->
              Histogram.mean r.Driver.query_latency);
          f1 "staleness mean" (fun (_, r) -> Histogram.mean r.Driver.staleness);
          f1 "p95" (fun (_, r) -> Histogram.percentile r.Driver.staleness 0.95);
          f1 "max" (fun (_, r) -> Histogram.max_value r.Driver.staleness);
          i "rounds" (fun (s, _) -> s.Ava3.Cluster.advancements);
        ];
  }

let print_staleness () =
  Report.print e4a (staleness_sweep ~eager:false () @ staleness_sweep ~eager:true ());
  Report.print e4b [ staleness_bound () ];
  Report.print e4c
    (pmap
       (fun query_duration -> continuous_one ~seed:47L ~query_duration)
       [ 5.0; 20.0; 60.0 ])

(* ------------------------------------------------------------------ *)
(* E5 — protocol comparison                                            *)
(* ------------------------------------------------------------------ *)

type comparison_row = {
  protocol : string;
  committed : int;
  aborted : int;
  update_p95 : float;
  query_p95 : float;
  long_query_p95 : float;
  staleness_mean : float;
  max_versions : int;
  lock_wait_time : float;
  interference_metric : float;
}

let comparison ?(seed = 31L) ?(duration = 2000.0) ?domains () =
  let spec =
    {
      Driver.default_spec with
      duration;
      update_rate = 0.25;
      query_rate = 0.12;
      ops_per_update = (2, 4);
      long_query_period = 120.0;
      long_query_reads = 60;
    }
  in
  let stat extra key = Option.value (List.assoc_opt key extra) ~default:0.0 in
  let run_one (type db) (module Db : Workload.Db_intf.DB with type t = db) make load
      ~interference =
    let db, report =
      drive (module Db) ~seed ~make ~load
        ~keyspace:(Keyspace.create ~nodes:3 ~keys_per_node:60 ~theta:0.9)
        ~spec ~experiment:"E5-comparison" ~label:Db.name ()
    in
    let extra = Db.extra_stats db in
    {
      protocol = Db.name;
      committed = report.Driver.committed;
      aborted = report.Driver.aborted;
      update_p95 = Histogram.percentile report.Driver.update_latency 0.95;
      query_p95 = Histogram.percentile report.Driver.query_latency 0.95;
      long_query_p95 = Histogram.percentile report.Driver.long_query_latency 0.95;
      staleness_mean = Histogram.mean report.Driver.staleness;
      max_versions = Db.max_versions_ever db;
      lock_wait_time = stat extra "lock_wait_time";
      interference_metric =
        (match interference with Some key -> stat extra key | None -> 0.0);
    }
  in
  (* One thunk per protocol so the five runs fan out across domains. *)
  pmap ?domains
    (fun run -> run ())
    [
      (fun () ->
        run_one
          (module Baseline.Ava3_db)
          (fun engine ->
            Baseline.Ava3_db.create ~engine ~advancement_period:100.0
              ~advancement_until:duration ~nodes:3 ())
          Baseline.Ava3_db.load ~interference:None);
      (fun () ->
        run_one
          (module Baseline.S2pl)
          (fun engine -> Baseline.S2pl.create ~engine ~nodes:3 ())
          Baseline.S2pl.load ~interference:(Some "lock_wait_time"));
      (fun () ->
        run_one
          (module Baseline.Two_version)
          (fun engine -> Baseline.Two_version.create ~engine ~nodes:3 ())
          Baseline.Two_version.load ~interference:(Some "commit_delay"));
      (fun () ->
        run_one
          (module Baseline.Mvcc)
          (fun engine -> Baseline.Mvcc.create ~engine ~nodes:3 ())
          Baseline.Mvcc.load ~interference:None);
      (fun () ->
        run_one
          (module Baseline.Four_version)
          (fun engine ->
            Baseline.Four_version.create ~engine ~advancement_period:100.0
              ~advancement_until:duration ~nodes:3 ())
          Baseline.Four_version.load ~interference:(Some "mismatch_aborts"));
    ]

let e5 : comparison_row Report.table =
  {
    title =
      "E5: protocols under one mixed workload (3 nodes, Zipf 0.95, long \
       queries every 120)";
    columns =
      Report.
        [
          s "protocol" (fun r -> r.protocol);
          i "commits" (fun r -> r.committed);
          i "aborts" (fun r -> r.aborted);
          f2 "upd p95" (fun r -> r.update_p95);
          f2 "qry p95" (fun r -> r.query_p95);
          f2 "longq p95" (fun r -> r.long_query_p95);
          f1 "staleness" (fun r -> r.staleness_mean);
          i "max-vers" (fun (r : comparison_row) -> r.max_versions);
          f1 "lock-wait" (fun r -> r.lock_wait_time);
          f1 "interference" (fun r -> r.interference_metric);
        ];
  }

let print_comparison () = Report.print e5 (comparison ())

(* ------------------------------------------------------------------ *)
(* E6 — moveToFuture                                                   *)
(* ------------------------------------------------------------------ *)

let move_to_future ~seed ~duration (scheme, piggyback, period) =
  let cluster, report =
    drive_ava3 ~seed
      ~make:(fun engine ->
        Baseline.Ava3_db.create ~engine
          ~config:{ Ava3.Config.default with scheme; piggyback_version = piggyback }
          ~advancement_period:period ~advancement_until:duration ~nodes:3 ())
      ~keyspace:(Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.9)
      ~spec:
        {
          Driver.default_spec with
          duration;
          update_rate = 0.3;
          query_rate = 0.05;
          remote_fraction = 0.5;
          ops_per_update = (3, 6);
        }
      ~experiment:"E6-movetofuture"
      ~label:
        (Printf.sprintf "scheme=%s piggyback=%b period=%g"
           (Wal.Scheme.kind_name scheme) piggyback period)
      ()
  in
  (Ava3.Cluster.stats cluster, report)

(* Targeted §10 piggyback scenario: the root subtransaction is dragged to
   the new version by a data access, then dispatches a child to a node that
   has not advanced yet.  Piggybacking starts the child directly in the new
   version, eliminating the commit-time moveToFuture. *)
type piggyback_run = { staged : int; commit_mtf_plain : int; commit_mtf_piggyback : int }

let piggyback_targeted ?(seed = 53L) () =
  let run ~piggyback =
    let config =
      {
        Ava3.Config.default with
        piggyback_version = piggyback;
        read_service_time = 0.0;
        write_service_time = 0.0;
      }
    in
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let db : int Ava3.Cluster.t =
      Ava3.Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
        ~nodes:3 ()
    in
    Ava3.Cluster.load db ~node:0 [ ("a", 0); ("c", 0) ];
    Ava3.Cluster.load db ~node:1 [ ("b", 0) ];
    let staged = 20 in
    for s = 0 to staged - 1 do
      let base = 10.0 +. (50.0 *. float_of_int s) in
      (* The straddler: writes at node 0, is dragged to the new version by
         touching [c] (committed there by the transaction below), then
         dispatches its first operation to node 1 — which has not heard
         about the advancement yet. *)
      Sim.Engine.schedule engine ~delay:base (fun () ->
          ignore
            (Ava3.Cluster.run_update db ~root:0
               ~ops:
                 [
                   Update.Write { node = 0; key = "a"; value = s };
                   Update.Pause 10.0;
                   Update.Write { node = 0; key = "c"; value = s };
                   Update.Pause 5.0;
                   Update.Write { node = 1; key = "b"; value = s };
                 ]));
      (* Node 0 hears Phase 1 first (direct message); node 1 lags. *)
      Sim.Engine.schedule engine ~delay:(base +. 2.0) (fun () ->
          let newu = Ava3.Node_state.u (Ava3.Cluster.node db 0) + 1 in
          Net.Network.send (Ava3.Cluster.network db) ~src:2 ~dst:0
            (Ava3.Messages.Advance_u { newu }));
      Sim.Engine.schedule engine ~delay:(base +. 4.0) (fun () ->
          ignore
            (Ava3.Cluster.run_update db ~root:0
               ~ops:[ Update.Write { node = 0; key = "c"; value = s } ]));
      (* Let the round finish properly so versions publish and collect. *)
      Sim.Engine.schedule engine ~delay:(base +. 30.0) (fun () ->
          ignore (Ava3.Cluster.advance db ~coordinator:0))
    done;
    Sim.Engine.run engine;
    let stats = Ava3.Cluster.stats db in
    Report.record_metrics ~experiment:"E6b-piggyback"
      ~label:(Printf.sprintf "piggyback=%b" piggyback)
      (Ava3.Cluster.metrics_snapshot db);
    (staged, stats.Ava3.Cluster.mtf_commit_time)
  in
  match pmap (fun piggyback -> run ~piggyback) [ false; true ] with
  | [ (staged, plain); (_, piggy) ] ->
      { staged; commit_mtf_plain = plain; commit_mtf_piggyback = piggy }
  | _ -> assert false

let e6 : ((Wal.Scheme.kind * bool * float) * (Ava3.Cluster.stats * Driver.report))
    Report.table =
  {
    title = "E6: moveToFuture frequency and cost (§4, §10 piggyback ablation)";
    columns =
      Report.
        [
          s "scheme" (fun ((scheme, _, _), _) -> Wal.Scheme.kind_name scheme);
          yes_no "piggyback" (fun ((_, piggyback, _), _) -> piggyback);
          f1 "adv period" (fun ((_, _, period), _) -> period);
          i "commits" (fun (_, (_, r)) -> r.Driver.committed);
          i "mtf@data" (fun (_, (s, _)) -> s.Ava3.Cluster.mtf_data_access);
          i "mtf@commit" (fun (_, (s, _)) -> s.Ava3.Cluster.mtf_commit_time);
          i "trivial" (fun (_, (s, _)) -> s.Ava3.Cluster.mtf_trivial);
          i "items copied" (fun (_, (s, _)) -> s.Ava3.Cluster.mtf_items_copied);
        ];
  }

let piggyback_table : piggyback_run Report.table =
  {
    title = "E6b: §10 piggyback on transactions that straddle an advancement";
    columns =
      Report.
        [
          i "staged straddlers" (fun p -> p.staged);
          i "commit-mtf (plain)" (fun p -> p.commit_mtf_plain);
          i "commit-mtf (piggyback)" (fun p -> p.commit_mtf_piggyback);
        ];
  }

let print_move_to_future () =
  let points =
    List.concat_map
      (fun period ->
        List.concat_map
          (fun scheme ->
            List.map (fun piggyback -> (scheme, piggyback, period)) [ false; true ])
          [ Wal.Scheme.No_undo; Wal.Scheme.Undo_redo ])
      [ 50.0; 200.0 ]
  in
  Report.print e6
    (pmap (fun p -> (p, move_to_future ~seed:37L ~duration:2000.0 p)) points);
  Report.print piggyback_table [ piggyback_targeted () ]

(* ------------------------------------------------------------------ *)
(* E7 — centralized 3 vs 4 versions; synchronous advancement aborts    *)
(* ------------------------------------------------------------------ *)

type centralized_row = {
  variant : string;
  max_versions : int;
  steady_versions : int;
  advancement_mean_latency : float;
  advancements : int;
}

(* Centralized node with constant long queries; measure how long each
   advancement takes to publish (Phase 2 wait) and how many versions are
   resident.  AVA3 pays the wait with 3 versions; the 4-version scheme
   advances instantly with 4. *)
let centralized_variant ~seed ~retain_extra () =
  let config =
    {
      Ava3.Config.default with
      retain_extra_version = retain_extra;
      read_service_time = 0.5;
    }
  in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let db : int Ava3.Centralized.t = Ava3.Centralized.create ~engine ~config () in
  Ava3.Centralized.load db (List.init 10 (fun i -> (Printf.sprintf "k%d" i, 0)));
  let latencies = Histogram.create () in
  let advancements = ref 0 in
  let steady = ref 0 in
  (* Sample resident versions between advancements (steady state). *)
  for s = 1 to 10 do
    Sim.Engine.schedule engine
      ~delay:((100.0 *. float_of_int s) -. 10.0)
      (fun () ->
        let store = Ava3.Node_state.store (Ava3.Centralized.node db) in
        steady := max !steady (Vstore.Store.max_live_versions_now store))
  done;
  (* Steady stream of 40-unit queries. *)
  for s = 0 to 60 do
    Sim.Engine.schedule engine
      ~delay:(10.0 +. (20.0 *. float_of_int s))
      (fun () ->
        ignore
          (Ava3.Centralized.run_query db
             ~keys:(List.init 80 (fun i -> Printf.sprintf "k%d" (i mod 10)))))
  done;
  (* Updates rewriting every key every round, so each advancement both has
     something to publish and exercises the version bound. *)
  for s = 0 to 150 do
    Sim.Engine.schedule engine
      ~delay:(5.0 +. (8.0 *. float_of_int s))
      (fun () ->
        ignore
          (Ava3.Centralized.run_update db
             ~ops:[ Ava3.Centralized.Write (Printf.sprintf "k%d" (s mod 10), s) ]))
  done;
  (* Advancements every 100 units; measure their completion latency. *)
  for s = 1 to 10 do
    Sim.Engine.schedule engine
      ~delay:(100.0 *. float_of_int s)
      (fun () ->
        let t0 = Sim.Engine.now engine in
        match Ava3.Centralized.advance_and_wait db with
        | `Completed _ ->
            incr advancements;
            Histogram.add latencies (Sim.Engine.now engine -. t0)
        | `Busy -> ())
  done;
  Sim.Engine.run engine;
  let stats = Ava3.Centralized.stats db in
  let variant =
    if retain_extra then "four-version (MPL92-style)" else "ava3 (3 versions)"
  in
  Report.record_metrics ~experiment:"E7-centralized" ~label:variant
    (Ava3.Cluster.metrics_snapshot (Ava3.Centralized.cluster db));
  {
    variant;
    max_versions = stats.Ava3.Cluster.max_versions_ever;
    steady_versions = !steady;
    advancement_mean_latency = Histogram.mean latencies;
    advancements = !advancements;
  }

let centralized ?(seed = 41L) ?domains () =
  pmap ?domains
    (fun retain_extra -> centralized_variant ~seed ~retain_extra ())
    [ false; true ]

type sync_aborts = {
  ava3_aborts_from_advancement : int;
  fourv_mismatch_aborts : int;
  advancements_during_run : int;
}

(* Distributed: frequent advancements under distributed transactions.  The
   synchronous scheme aborts straddlers; AVA3 moves them to the future. *)
let sync_advancement_aborts ?(seed = 43L) () =
  let duration = 1500.0 in
  let run (type db) (module Db : Workload.Db_intf.DB with type t = db) make load =
    fst
      (drive (module Db) ~seed ~make ~load
         ~keyspace:(Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.85)
         ~spec:
           {
             Driver.default_spec with
             duration;
             update_rate = 0.25;
             query_rate = 0.05;
             remote_fraction = 0.6;
             ops_per_update = (3, 6);
           }
         ~experiment:"E7b-sync-aborts" ~label:Db.name ())
  in
  match
    pmap
      (fun run -> run ())
      [
        (fun () ->
          let db =
            run
              (module Baseline.Ava3_db)
              (fun engine ->
                Baseline.Ava3_db.create ~engine ~advancement_period:40.0
                  ~advancement_until:duration ~nodes:3 ())
              Baseline.Ava3_db.load
          in
          let stats = Ava3.Cluster.stats (Baseline.Ava3_db.cluster db) in
          (* AVA3 aborts only come from deadlocks; advancement adds none.
             Report aborts minus deadlock victims (which exist in both
             systems). *)
          ( stats.Ava3.Cluster.aborts - stats.Ava3.Cluster.deadlocks,
            stats.Ava3.Cluster.advancements ));
        (fun () ->
          let db =
            run
              (module Baseline.Four_version)
              (fun engine ->
                Baseline.Four_version.create ~engine ~advancement_period:40.0
                  ~advancement_until:duration ~nodes:3 ())
              Baseline.Four_version.load
          in
          (Baseline.Four_version.mismatch_aborts db, 0));
      ]
  with
  | [ (ava3_aborts, advancements); (mismatch, _) ] ->
      {
        ava3_aborts_from_advancement = ava3_aborts;
        fourv_mismatch_aborts = mismatch;
        advancements_during_run = advancements;
      }
  | _ -> assert false

let e7a : centralized_row Report.table =
  {
    title = "E7a: centralized — versions kept vs advancement latency (§7)";
    columns =
      Report.
        [
          s "variant" (fun r -> r.variant);
          i "max versions" (fun (r : centralized_row) -> r.max_versions);
          i "steady versions" (fun r -> r.steady_versions);
          f1 "adv latency (mean)" (fun r -> r.advancement_mean_latency);
          i "advancements" (fun (r : centralized_row) -> r.advancements);
        ];
  }

let e7b : (string * int * int) Report.table =
  {
    title = "E7b: distributed — advancement-induced aborts (§1, §9)";
    columns =
      Report.
        [
          s "protocol" (fun (p, _, _) -> p);
          i "advancement-induced aborts" (fun (_, aborts, _) -> aborts);
          i "advancements" (fun (_, _, advancements) -> advancements);
        ];
  }

let print_centralized () =
  Report.print e7a (centralized ());
  let s = sync_advancement_aborts () in
  Report.print e7b
    [
      ("ava3", s.ava3_aborts_from_advancement, s.advancements_during_run);
      ("four-version-sync", s.fourv_mismatch_aborts, s.advancements_during_run);
    ]

(* ------------------------------------------------------------------ *)
(* E8 — optimisation ablations and the version-index GC cost           *)
(* ------------------------------------------------------------------ *)

type ablation_row = {
  ablation : string;
  abl_commits : int;
  abl_messages : int;
  abl_latches : int;
  abl_mtf : int;
  abl_staleness : float;
}

let ablations ?(seed = 59L) ?(duration = 1500.0) ?domains () =
  let run (name, config) =
    let cluster, report =
      drive_ava3 ~seed
        ~make:(fun engine ->
          Baseline.Ava3_db.create ~engine ~config ~advancement_period:75.0
            ~advancement_until:duration ~nodes:3 ())
        ~keyspace:(Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.85)
        ~spec:
          {
            Driver.default_spec with
            duration;
            update_rate = 0.25;
            query_rate = 0.2;
            ops_per_update = (2, 4);
            remote_fraction = 0.5;
          }
        ~experiment:"E8-ablations" ~label:name ()
    in
    let stats = Ava3.Cluster.stats cluster in
    {
      ablation = name;
      abl_commits = report.Driver.committed;
      abl_messages = stats.Ava3.Cluster.messages;
      abl_latches = stats.Ava3.Cluster.latch_acquisitions;
      abl_mtf =
        stats.Ava3.Cluster.mtf_data_access + stats.Ava3.Cluster.mtf_commit_time;
      abl_staleness = Histogram.mean report.Driver.staleness;
    }
  in
  let base = Ava3.Config.default in
  pmap ?domains run
    [
      ("base protocol", base);
      ("+eager hand-off (§8)", { base with eager_counter_handoff = true });
      ("+piggyback (§10)", { base with piggyback_version = true });
      ("+root-only counters (§10)", { base with root_only_query_counters = true });
      ("+shared counters (§10)", { base with shared_transaction_counters = true });
      ("+overlap gc (§8)", { base with overlap_gc = true });
      ( "all optimisations",
        {
          base with
          eager_counter_handoff = true;
          piggyback_version = true;
          root_only_query_counters = true;
          shared_transaction_counters = true;
          overlap_gc = true;
        } );
    ]

type gc_cost_row = {
  gc_rule : string;
  store_items : int;
  gc_rounds : int;
  items_visited : int;
  full_scan_equivalent : int;
}

(* Both rules store the same entries: the paper's renumbering is a relabel
   of what the in-place rule keeps, so with the version index either one's
   GC work is proportional to the items actually written — once the first
   round has visited the loaded version. *)
let gc_cost_one ?(seed = 61L) ~renumber () =
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config = { Ava3.Config.default with gc_renumber = renumber } in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~config ~nodes:1 () in
  let items = 5000 in
  Ava3.Cluster.load db ~node:0
    (List.init items (fun i -> (Printf.sprintf "k%d" i, 0)));
  let rounds = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for round = 1 to 10 do
        (* Touch only 50 of the 5000 items per round. *)
        for i = 0 to 49 do
          ignore
            (Ava3.Cluster.run_update db ~root:0
               ~ops:
                 [
                   Ava3.Update_exec.Write
                     {
                       node = 0;
                       key = Printf.sprintf "k%d" (((round * 50) + i) mod items);
                       value = round;
                     };
                 ])
        done;
        match Ava3.Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed _ -> incr rounds
        | `Busy -> ()
      done);
  Sim.Engine.run engine;
  let store = Ava3.Node_state.store (Ava3.Cluster.node db 0) in
  let gc_rule = if renumber then "renumber (paper)" else "in-place" in
  Report.record_metrics ~experiment:"E8b-gc-cost" ~label:gc_rule
    (Ava3.Cluster.metrics_snapshot db);
  {
    gc_rule;
    store_items = Vstore.Store.item_count store;
    gc_rounds = !rounds;
    items_visited = Vstore.Store.gc_items_visited store;
    full_scan_equivalent = items * !rounds;
  }

let gc_cost ?seed ?domains () =
  pmap ?domains (fun renumber -> gc_cost_one ?seed ~renumber ()) [ true; false ]

type tree_vs_flat_row = {
  fanout : int;
  flat_latency : float;
  tree_latency : float;
}

(* The R* tree model runs children concurrently; the flat executor ships
   operations one at a time.  With f remote nodes and latency L, flat pays
   ~2fL of network time where the tree pays ~2L. *)
let tree_vs_flat ?(seed = 71L) ?domains () =
  let run ~fanout ~use_tree =
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let config =
      { Ava3.Config.default with read_service_time = 0.0; write_service_time = 0.0 }
    in
    let db : int Ava3.Cluster.t =
      Ava3.Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 2.0)
        ~nodes:(fanout + 1) ()
    in
    for n = 0 to fanout do
      Ava3.Cluster.load db ~node:n [ (Printf.sprintf "k%d" n, 0) ]
    done;
    let latencies = Histogram.create () in
    for s = 0 to 19 do
      Sim.Engine.schedule engine ~delay:(float_of_int s *. 100.0) (fun () ->
          let t0 = Sim.Engine.now engine in
          let done_ () = Histogram.add latencies (Sim.Engine.now engine -. t0) in
          if use_tree then begin
            let plan =
              {
                Ava3.Tree_txn.at = 0;
                work = [ Ava3.Tree_txn.Write ("k0", s) ];
                children =
                  List.init fanout (fun i ->
                      {
                        Ava3.Tree_txn.at = i + 1;
                        work = [ Ava3.Tree_txn.Write (Printf.sprintf "k%d" (i + 1), s) ];
                        children = [];
                      });
              }
            in
            match Ava3.Cluster.run_tree_update db ~plan with
            | Ava3.Tree_txn.Committed _ -> done_ ()
            | Ava3.Tree_txn.(Aborted _ | In_doubt _ | Root_down _) -> ()
          end
          else
            match
              Ava3.Cluster.run_update db ~root:0
                ~ops:
                  (Ava3.Update_exec.Write { node = 0; key = "k0"; value = s }
                  :: List.init fanout (fun i ->
                         Ava3.Update_exec.Write
                           { node = i + 1; key = Printf.sprintf "k%d" (i + 1); value = s }))
            with
            | Ava3.Update_exec.Committed _ -> done_ ()
            | Ava3.Update_exec.(Aborted _ | In_doubt _ | Root_down _) -> ())
    done;
    Sim.Engine.run engine;
    Report.record_metrics ~experiment:"E8c-tree-vs-flat"
      ~label:(Printf.sprintf "fanout=%d %s" fanout (if use_tree then "tree" else "flat"))
      (Ava3.Cluster.metrics_snapshot db);
    Histogram.mean latencies
  in
  pmap ?domains
    (fun fanout ->
      {
        fanout;
        flat_latency = run ~fanout ~use_tree:false;
        tree_latency = run ~fanout ~use_tree:true;
      })
    [ 1; 2; 4; 8 ]

let e8a : ablation_row Report.table =
  {
    title = "E8a: optimisation ablations (same workload and seed)";
    columns =
      Report.
        [
          s "configuration" (fun r -> r.ablation);
          i "commits" (fun r -> r.abl_commits);
          i "messages" (fun r -> r.abl_messages);
          i "latches" (fun r -> r.abl_latches);
          i "mtf" (fun r -> r.abl_mtf);
          f1 "staleness" (fun r -> r.abl_staleness);
        ];
  }

let gc_cost_table : gc_cost_row Report.table =
  {
    title =
      "E8b: Phase-3 GC work, version-indexed (50 of 5000 items written per \
       round)";
    columns =
      Report.
        [
          s "gc rule" (fun g -> g.gc_rule);
          i "store items" (fun g -> g.store_items);
          i "gc rounds" (fun g -> g.gc_rounds);
          i "items visited" (fun g -> g.items_visited);
          i "full-scan equivalent" (fun g -> g.full_scan_equivalent);
        ];
  }

let tree_vs_flat_table : tree_vs_flat_row Report.table =
  {
    title =
      "E8c: flat vs R*-tree transaction execution (latency 2.0/hop, one \
       write per node)";
    columns =
      Report.
        [
          i "remote nodes" (fun r -> r.fanout);
          f1 "flat latency" (fun r -> r.flat_latency);
          f1 "tree latency" (fun r -> r.tree_latency);
        ];
  }

let print_ablations () =
  Report.print e8a (ablations ());
  Report.print gc_cost_table (gc_cost ());
  Report.print tree_vs_flat_table (tree_vs_flat ())

(* ------------------------------------------------------------------ *)
(* E9 — advancement scalability with cluster size                      *)
(* ------------------------------------------------------------------ *)

(* Version advancement costs 5n messages per round (advance-u/ack,
   advance-q/ack, garbage-collect) and two ack-collection barriers; latency
   should stay near-constant with n while messages grow linearly.  The
   protocol cost is measured on an idle cluster (a loaded one would conflate
   transaction RPC traffic); throughput and staleness come from a loaded
   run of the same size.  Returns (idle round latency, idle messages per
   round, commits, mean staleness). *)
let scalability ~seed nodes =
  let idle_round_cost () =
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~nodes () in
    Ava3.Cluster.load db ~node:0 [ ("x", 1) ];
    let latencies = Histogram.create () and message_costs = Histogram.create () in
    Sim.Engine.spawn engine (fun () ->
        let net = Ava3.Cluster.network db in
        for round = 0 to 4 do
          (* Keep versions moving so every round has something to publish. *)
          ignore
            (Ava3.Cluster.run_update db ~root:0
               ~ops:[ Ava3.Update_exec.Write { node = 0; key = "x"; value = round } ]);
          let before = Net.Network.messages_sent net in
          let t0 = Sim.Engine.now engine in
          match Ava3.Cluster.advance_and_wait db ~coordinator:(round mod nodes) with
          | `Completed _ ->
              Histogram.add latencies (Sim.Engine.now engine -. t0);
              Histogram.add message_costs
                (float_of_int (Net.Network.messages_sent net - before))
          | `Busy -> ()
        done);
    Sim.Engine.run engine;
    (Histogram.mean latencies, Histogram.mean message_costs)
  in
  let duration = 1200.0 in
  let idle_latency, idle_messages = idle_round_cost () in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~nodes () in
  let ks = Keyspace.create ~nodes ~keys_per_node:40 ~theta:0.8 in
  for n = 0 to nodes - 1 do
    Ava3.Cluster.load db ~node:n
      (List.map (fun k -> (k, 0)) (Keyspace.all_keys ks ~node:n))
  done;
  Ava3.Cluster.start_periodic_advancement db ~coordinator:0 ~period:100.0
    ~until:duration;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let update_rate = 0.08 *. float_of_int nodes
  and query_rate = 0.05 *. float_of_int nodes in
  let arrivals rate =
    List.init (int_of_float (rate *. duration)) (fun i -> float_of_int i /. rate)
  in
  (* Drive the workload directly on this cluster. *)
  let committed = ref 0 in
  let staleness = Histogram.create () in
  List.iter
    (fun at ->
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let root = Sim.Rng.int rng nodes in
          let ops =
            List.init (Sim.Rng.int_in rng 2 4) (fun _ ->
                let n = Sim.Rng.int rng nodes in
                Ava3.Update_exec.Write
                  {
                    node = n;
                    key = Keyspace.draw_at ks rng ~node:n;
                    value = Sim.Rng.int rng 1000;
                  })
          in
          match
            Ava3.Txn_core.retry (fun () -> Ava3.Cluster.run_update db ~root ~ops)
          with
          | Ava3.Update_exec.Committed _, _ -> incr committed
          | _ -> ()))
    (arrivals update_rate);
  List.iter
    (fun at ->
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let root = Sim.Rng.int rng nodes in
          let q =
            Ava3.Cluster.run_query db ~root
              ~reads:[ (root, Keyspace.draw_at ks rng ~node:root) ]
          in
          Option.iter (Histogram.add staleness) q.Ava3.Query_exec.staleness))
    (arrivals query_rate);
  Sim.Engine.run engine;
  Report.record_metrics ~experiment:"E9-scalability"
    ~label:(Printf.sprintf "nodes=%d" nodes)
    (Ava3.Cluster.metrics_snapshot db);
  (idle_latency, idle_messages, !committed, Histogram.mean staleness)

let e9 : (int * (float * float * int * float)) Report.table =
  {
    title = "E9: advancement cost vs cluster size (per-node load held constant)";
    columns =
      Report.
        [
          i "nodes" fst;
          f1 "adv latency (mean)" (fun (_, (latency, _, _, _)) -> latency);
          f1 "messages/round" (fun (_, (_, messages, _, _)) -> messages);
          i "commits" (fun (_, (_, _, commits, _)) -> commits);
          f1 "staleness" (fun (_, (_, _, _, staleness)) -> staleness);
        ];
  }

let print_scalability () =
  Report.print e9
    (pmap (fun nodes -> (nodes, scalability ~seed:67L nodes)) [ 1; 2; 4; 8; 16 ])

(* ------------------------------------------------------------------ *)
(* E10 — availability and advancement latency under faults             *)
(* ------------------------------------------------------------------ *)

(* One cluster under a seeded nemesis.  Faults are drawn from the engine's
   RNG before anything runs, so the schedule (and hence every number in
   the row) is a pure function of [seed] — identical at any AVA3_DOMAINS
   width.  Stalls stay bounded by the initiation beat plus the repair
   time (see [under_faults]), and queries keep reading their snapshots
   throughout. *)
let faults ~seed (scenario, crashes, partitions, slow_links) =
  let nodes = 3 and horizon = 1000.0 in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    { Ava3.Config.default with rpc_timeout = 10.0; advancement_retry = 30.0 }
  in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~config ~nodes () in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  for n = 0 to nodes - 1 do
    Ava3.Cluster.load db ~node:n
      (List.init 20 (fun i -> (Printf.sprintf "n%d-k%d" n i, 0)))
  done;
  (* Fault schedule: all faults heal well before the horizon so the run
     drains; crash windows are disjoint (see Nemesis.random_plan). *)
  let plan =
    Net.Nemesis.random_plan ~rng ~nodes ~horizon:(horizon *. 0.8) ~crashes
      ~partitions ~slow_links ~min_duration:40.0 ~max_duration:80.0
      ~extra_latency:4.0 ()
  in
  let key n = Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng 20) in
  let t = tally () in
  let workload () =
    (* Updates, with retry on transient aborts (deadlock, timeout).  Each
       attempt is inspected so timed-out *attempts* are counted even when a
       later attempt commits — that is the work the faults cost us. *)
    for u = 0 to int_of_float (horizon /. 8.0) - 1 do
      Sim.Engine.schedule engine ~delay:(float_of_int u *. 8.0) (fun () ->
          let root = Sim.Rng.int rng nodes in
          let ops =
            List.init
              (1 + Sim.Rng.int rng 3)
              (fun _ ->
                let n = Sim.Rng.int rng nodes in
                Ava3.Update_exec.Write
                  { node = n; key = key n; value = Sim.Rng.int rng 1000 })
          in
          let attempt () =
            let outcome = Ava3.Cluster.run_update db ~root ~ops in
            (match outcome with
            | Ava3.Update_exec.Aborted { reason = `Rpc_timeout _; _ } ->
                t.timeouts <- t.timeouts + 1
            | _ -> ());
            outcome
          in
          match Ava3.Txn_core.retry ~max_attempts:5 ~backoff:12.0 attempt with
          | Ava3.Update_exec.Committed _, _ -> t.ok <- t.ok + 1
          | _ ->
              (* A down submission root is counted with the aborts, as the
                 pre-sentinel Node_down outcome was. *)
              t.failed <- t.failed + 1)
    done;
    (* Queries: never blocked by advancement; they fail only when their
       root is down or a remote read is cut off mid-fault. *)
    for q = 0 to int_of_float (horizon /. 5.0) - 1 do
      Sim.Engine.schedule engine ~delay:(float_of_int q *. 5.0) (fun () ->
          let root = Sim.Rng.int rng nodes in
          let reads =
            List.init
              (1 + Sim.Rng.int rng 3)
              (fun _ ->
                let n = Sim.Rng.int rng nodes in
                (n, key n))
          in
          match Ava3.Cluster.run_query db ~root ~reads with
          | _ -> t.q_ok <- t.q_ok + 1
          | exception (Net.Network.Node_down _ | Net.Network.Rpc_timeout _) ->
              t.q_failed <- t.q_failed + 1)
    done
  in
  let f =
    under_faults ~engine db ~plan ~beat:50.0 ~horizon ~workload
      ~probes:
        (List.init (int_of_float (horizon /. 10.0) + 4) (fun p ->
             float_of_int p *. 10.0))
      ~experiment:"E10-faults" ~label:scenario ()
  in
  (scenario, t, f)

let e10 : (string * tally * faulted) Report.table =
  {
    title =
      "E10: availability under faults (3 nodes, rpc timeout 10, advancement \
       beat 50, horizon 1000)";
    columns =
      Report.
        [
          s "scenario" (fun (name, _, _) -> name);
          i "commits" (fun (_, t, _) -> t.ok);
          i "aborts" (fun (_, t, _) -> t.failed);
          i "timeouts" (fun (_, t, _) -> t.timeouts);
          i "queries ok" (fun (_, t, _) -> t.q_ok);
          i "q failed" (fun (_, t, _) -> t.q_failed);
          i "advancements" (fun (_, _, f) -> f.stats.Ava3.Cluster.advancements);
          f1 "max adv gap" (fun (_, _, f) -> f.max_gap);
          i "violations" (fun (_, _, (f : faulted)) -> f.violations);
        ];
  }

let print_faults () =
  Report.print e10
    (pmap (faults ~seed:73L)
       [
         ("no faults", 0, 0, 0);
         ("crashes", 2, 0, 0);
         ("partitions", 0, 2, 0);
         ("crash+partition+slow", 2, 1, 1);
       ])

(* ------------------------------------------------------------------ *)
(* E11 — commit-path batching: group-commit WAL + RPC coalescing       *)
(* ------------------------------------------------------------------ *)

(* One run: [workers] clients per node, each committing a fixed count of
   two-site updates on its own private keys (no lock conflicts — the run
   measures the commit path, not contention).  The disk force latency is
   the dominant cost: with the window at 0 every committer queues on the
   serial disk for its own force, with a window one force covers the
   batch.  The work is identical in every row (same seed, same fixed
   transaction count, hence the same logical message count), so forces,
   envelopes and the makespan-derived throughput are directly
   comparable.  Returns (commits, commits per virtual second, commit
   latencies, stats). *)
let batching ~seed (label, gc_window, rpc_window) =
  let nodes = 3 and workers = 6 and txns_per_worker = 24 in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      disk_force_latency = 2.0;
      group_commit_window = gc_window;
      rpc_batch_window = rpc_window;
    }
  in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~config ~nodes () in
  for n = 0 to nodes - 1 do
    Ava3.Cluster.load db ~node:n
      (List.concat_map
         (fun w ->
           List.init 4 (fun k -> (Printf.sprintf "n%d-w%d-k%d" n w k, 0)))
         (List.init (2 * workers) Fun.id))
  done;
  let commits = ref 0 in
  let lat = Histogram.create () in
  for n = 0 to nodes - 1 do
    for w = 0 to workers - 1 do
      Sim.Engine.spawn engine
        ~name:(Printf.sprintf "client-n%d-w%d" n w)
        (fun () ->
          let peer = (n + 1) mod nodes in
          let rec loop i =
            if i < txns_per_worker then begin
              if i > 0 then Sim.Engine.sleep 1.0;
              let ops =
                [
                  Update.Write
                    {
                      node = n;
                      key = Printf.sprintf "n%d-w%d-k%d" n w (i mod 4);
                      value = i;
                    };
                  Update.Write
                    {
                      node = peer;
                      key = Printf.sprintf "n%d-w%d-k%d" peer (workers + w) (i mod 4);
                      value = i;
                    };
                ]
              in
              (match Ava3.Cluster.run_update db ~root:n ~ops with
              | Update.Committed info ->
                  incr commits;
                  Histogram.add lat (info.Update.finished_at -. info.Update.started_at)
              | Update.(Aborted _ | In_doubt _ | Root_down _) -> ());
              loop (i + 1)
            end
          in
          loop 0)
    done
  done;
  Sim.Engine.run engine;
  (* The queue drained: [now] is the instant the last commit (plus its
     final network leg) finished — the makespan of the fixed workload. *)
  let makespan = Sim.Engine.now engine in
  Report.record_metrics ~experiment:"E11-batching" ~label
    (Ava3.Cluster.metrics_snapshot db);
  (!commits, float_of_int !commits /. makespan, lat, Ava3.Cluster.stats db)

let e11 :
    ((string * float * float) * (int * float * Histogram.t * Ava3.Cluster.stats))
    Report.table =
  {
    title =
      "E11: commit-path batching (3 nodes, 6 clients/node, 24 txns each, \
       disk force 2.0)";
    columns =
      Report.
        [
          s "batching" (fun ((label, _, _), _) -> label);
          f1 "gc win" (fun ((_, gc_window, _), _) -> gc_window);
          f2 "rpc win" (fun ((_, _, rpc_window), _) -> rpc_window);
          i "commits" (fun (_, (commits, _, _, _)) -> commits);
          f2 "commits/s" (fun (_, (_, throughput, _, _)) -> throughput);
          f1 "lat mean" (fun (_, (_, _, lat, _)) -> Histogram.mean lat);
          f1 "lat p95" (fun (_, (_, _, lat, _)) -> Histogram.percentile lat 0.95);
          i "forces" (fun (_, (_, _, _, s)) -> s.Ava3.Cluster.disk_forces);
          f1 "recs/force" (fun (_, (_, _, _, s)) ->
              if s.Ava3.Cluster.disk_forces = 0 then 0.0
              else
                float_of_int s.Ava3.Cluster.records_forced
                /. float_of_int s.Ava3.Cluster.disk_forces);
          i "envelopes" (fun (_, (_, _, _, s)) -> s.Ava3.Cluster.envelopes);
          i "messages" (fun (_, (_, _, _, s)) -> s.Ava3.Cluster.messages);
        ];
  }

let print_batching () =
  Report.print e11
    (pmap
       (fun p -> (p, batching ~seed:211L p))
       [
         ("off", 0.0, 0.0);
         ("w=1", 1.0, 0.25);
         ("w=4", 4.0, 1.0);
         ("w=16", 16.0, 4.0);
       ])

(* ------------------------------------------------------------------ *)
(* E12 — hierarchical advancement at scale                             *)
(* ------------------------------------------------------------------ *)

(* One run: a cluster of [nodes] sites whose data lives on the first
   max(2, nodes/8) of them, driven by a Zipf-skewed (hot-partition),
   storm-bursty update/query mix confined to the data sites.  The
   coordinator is the last site — it hosts no data and runs no
   transactions, so its network egress is purely advancement-protocol
   traffic and divides cleanly by the number of completed rounds.  Rows
   run sequentially in this domain so the wall-clock events/sec figures
   are not distorted by sibling domains.  Returns (stats, phase-1 mean,
   phase-2 mean, coordinator messages per round, events per wall-clock
   second). *)
let hierarchy ~seed (nodes, (mode, tree_arity, partition_aware)) =
  let duration = 600.0 in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  (* A per-message transmitter cost is what makes the flat O(N) broadcast
     expensive at the coordinator; without it a 1000-wide fan-out departs
     in zero simulated time and the tree could only lose (it adds hops). *)
  let config =
    {
      Ava3.Config.default with
      tree_arity;
      partition_aware;
      send_occupancy = 0.05;
    }
  in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~config ~nodes () in
  let data_sites = max 2 (nodes / 8) in
  let keys_per_site = 12 in
  let key s i = Printf.sprintf "n%d-k%d" s i in
  for s = 0 to data_sites - 1 do
    Ava3.Cluster.load db ~node:s
      (List.init keys_per_site (fun i -> (key s i, 0)))
  done;
  let coordinator = nodes - 1 in
  Ava3.Cluster.start_periodic_advancement db ~coordinator ~period:60.0
    ~until:duration;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let zipf = Workload.Zipf.create ~n:data_sites ~theta:0.9 in
  let pick_site () = Workload.Zipf.sample zipf rng in
  let pick_key s = key s (Sim.Rng.int rng keys_per_site) in
  let arrivals () =
    Driver.arrival_times rng
      ~rate:(0.02 *. float_of_int data_sites)
      ~duration ~storm_factor:3.0 ~storm_period:150.0 ()
  in
  List.iter
    (fun at ->
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let root = pick_site () in
          let other = pick_site () in
          (* Write in canonical (site, key) order: with every transaction
             acquiring its two hot-partition locks the same way, the storm
             cannot manufacture lock-order deadlock cycles, and the sweep
             measures advancement behavior rather than retry meltdown. *)
          let w1 = (root, pick_key root) and w2 = (other, pick_key other) in
          let (a, ka), (b, kb) = if w1 <= w2 then (w1, w2) else (w2, w1) in
          let ops =
            [
              Ava3.Update_exec.Write
                { node = a; key = ka; value = Sim.Rng.int rng 1000 };
              Ava3.Update_exec.Write
                { node = b; key = kb; value = Sim.Rng.int rng 1000 };
            ]
          in
          ignore
            (Ava3.Txn_core.retry (fun () ->
                 Ava3.Cluster.run_update db ~root ~ops))))
    (arrivals ());
  List.iter
    (fun at ->
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let root = pick_site () in
          ignore (Ava3.Cluster.run_query db ~root ~reads:[ (root, pick_key root) ])))
    (arrivals ());
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run engine;
  let wall = Unix.gettimeofday () -. t0 in
  let snapshot = Ava3.Cluster.metrics_snapshot db in
  Report.record_metrics ~experiment:"E12-hierarchy"
    ~label:(Printf.sprintf "nodes=%d mode=%s" nodes mode)
    snapshot;
  let mean f =
    let c, s =
      List.fold_left
        (fun (c, s) (n : Sim.Metrics.node_snapshot) ->
          let h : Sim.Metrics.hist_snapshot = f n in
          (c + h.Sim.Metrics.count, s +. h.Sim.Metrics.sum))
        (0, 0.0) snapshot
    in
    if c = 0 then 0.0 else s /. float_of_int c
  in
  let stats = Ava3.Cluster.stats db in
  let rounds = stats.Ava3.Cluster.advancements in
  let net = Ava3.Cluster.network db in
  let egress = ref 0 in
  for dst = 0 to nodes - 1 do
    egress := !egress + Net.Network.link_count net ~src:coordinator ~dst
  done;
  ( stats,
    mean (fun n -> n.Sim.Metrics.phase1_duration),
    mean (fun n -> n.Sim.Metrics.phase2_duration),
    (if rounds = 0 then 0.0 else float_of_int !egress /. float_of_int rounds),
    if wall <= 0.0 then 0.0
    else float_of_int (Sim.Engine.events_executed engine) /. wall )

let e12 :
    ((int * (string * int * bool))
    * (Ava3.Cluster.stats * float * float * float * float))
    Report.table =
  {
    title =
      "E12: hierarchical advancement at scale (hot Zipf partitions, arrival \
       storms; data on n/8 sites)";
    columns =
      Report.
        [
          i "nodes" (fun ((nodes, _), _) -> nodes);
          s "mode" (fun ((_, (mode, _, _)), _) -> mode);
          i "rounds" (fun (_, (s, _, _, _, _)) -> s.Ava3.Cluster.advancements);
          f2 "phase1 mean" (fun (_, (_, phase1, _, _, _)) -> phase1);
          f2 "phase2 mean" (fun (_, (_, _, phase2, _, _)) -> phase2);
          f1 "coord msgs/round" (fun (_, (_, _, _, egress, _)) -> egress);
          i "commits" (fun (_, (s, _, _, _, _)) -> s.Ava3.Cluster.commits);
          i "aborts" (fun (_, (s, _, _, _, _)) -> s.Ava3.Cluster.aborts);
          i "mtf" (fun (_, (s, _, _, _, _)) ->
              s.Ava3.Cluster.mtf_data_access + s.Ava3.Cluster.mtf_commit_time);
          s "events/s" (fun (_, (_, _, _, _, rate)) ->
              Printf.sprintf "%.0fk" (rate /. 1000.0));
        ];
  }

let print_hierarchy sizes =
  let modes = [ ("flat", 0, false); ("tree-8", 8, false); ("tree-8+pa", 8, true) ] in
  Report.print e12
    (List.concat_map
       (fun nodes ->
         List.map (fun mode -> ((nodes, mode), hierarchy ~seed:83L (nodes, mode))) modes)
       sizes)

(* ------------------------------------------------------------------ *)
(* E13 — replication: pinned backup reads under faults                 *)
(* ------------------------------------------------------------------ *)

(* One cluster at a given replica count under the same seeded fault
   schedule: crashes hit the original primary sites (forcing promotion
   when backups exist, partition outage when they don't) and link
   partitions cut primary-to-primary links (backups, living at higher
   site ids, keep their ship links and keep serving pinned reads).
   Queries are closed-loop with cross-partition reads, so each remote
   read exercises the version-pinned router; reply bandwidth at the
   serving site ([send_occupancy]) is the contended resource that extra
   replicas multiply.  Staleness is observed per query: the age of the
   snapshot version the query actually read, at completion time. *)
let replication ~seed ~horizon replicas =
  let nparts = 3 in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      replicas;
      replica_catchup_timeout = 12.0;
      rpc_timeout = 15.0;
      advancement_retry = 30.0;
      read_service_time = 0.5;
      write_service_time = 0.5;
      send_occupancy = 0.4;
    }
  in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~nodes:nparts ()
  in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let keys_per = 12 in
  for n = 0 to nparts - 1 do
    Ava3.Cluster.load db ~node:n
      (List.init keys_per (fun i -> (Printf.sprintf "n%d-k%d" n i, 0)))
  done;
  (* Same fault schedule at every replica count: targets are the site ids
     0 .. nparts-1, i.e. the original primaries. *)
  let plan =
    Net.Nemesis.random_plan ~rng ~nodes:nparts ~horizon:(horizon *. 0.8)
      ~crashes:2 ~partitions:2 ~slow_links:0 ~min_duration:40.0
      ~max_duration:80.0 ()
  in
  let key n = Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng keys_per) in
  let t = tally () in
  let workload () =
    (* Updates: open loop, modest rate, retried on transient aborts. *)
    for u = 0 to int_of_float (horizon /. 6.0) - 1 do
      Sim.Engine.schedule engine ~delay:(float_of_int u *. 6.0) (fun () ->
          let root = Sim.Rng.int rng nparts in
          let ops =
            List.init
              (1 + Sim.Rng.int rng 2)
              (fun _ ->
                let n = Sim.Rng.int rng nparts in
                Update.Write { node = n; key = key n; value = Sim.Rng.int rng 1000 })
          in
          match
            Ava3.Txn_core.retry ~max_attempts:5 ~backoff:10.0 (fun () ->
                Ava3.Cluster.run_update db ~root ~ops)
          with
          | Update.Committed _, _ -> t.ok <- t.ok + 1
          | _ -> t.failed <- t.failed + 1)
    done;
    (* Queries: closed loop, every read remote so it goes through the
       router.  Throughput is how many complete before the horizon. *)
    for c = 0 to 8 do
      Sim.Engine.schedule engine ~delay:(0.5 *. float_of_int c) (fun () ->
          while Sim.Engine.now engine < horizon do
            let root = c mod nparts in
            let reads =
              List.init 2 (fun i ->
                  let n = (root + 1 + ((c + i) mod (nparts - 1))) mod nparts in
                  (n, key n))
            in
            (match Ava3.Cluster.run_query db ~root ~reads with
            | (q : int Ava3.Query_exec.result) -> (
                t.q_ok <- t.q_ok + 1;
                match
                  Ava3.Cluster.staleness_of_version db ~version:q.version
                    ~at:(Sim.Engine.now engine)
                with
                | Some age -> Histogram.add t.stale age
                | None -> ())
            | exception (Net.Network.Node_down _ | Net.Network.Rpc_timeout _) ->
                t.q_failed <- t.q_failed + 1);
            Sim.Engine.sleep 1.0
          done)
    done
  in
  let f =
    under_faults ~engine db ~plan ~beat:40.0 ~horizon ~workload
      ~probes:
        (List.init (int_of_float (horizon /. 10.0) + 1) (fun p ->
             float_of_int p *. 10.0))
      ~experiment:"E13-replication"
      ~label:(Printf.sprintf "replicas=%d" replicas)
      ()
  in
  (replicas, t, f)

let e13 ~horizon : (int * tally * faulted) Report.table =
  let st f = fun (_, _, (x : faulted)) -> f x.stats in
  {
    title =
      "E13: pinned backup reads under faults (3 partitions, 2 crashes + 2 \
       link partitions, closed-loop cross-partition queries)";
    columns =
      Report.
        [
          i "replicas" (fun (replicas, _, _) -> replicas);
          i "queries ok" (fun (_, t, _) -> t.q_ok);
          i "q failed" (fun (_, t, _) -> t.q_failed);
          f2 "reads/t" (fun (_, t, _) -> float_of_int t.q_ok /. horizon);
          i "backup reads" (st (fun s -> s.Ava3.Cluster.backup_reads));
          f2 "stale mean" (fun (_, t, _) -> Histogram.mean t.stale);
          f2 "stale p95" (fun (_, t, _) -> Histogram.percentile t.stale 0.95);
          f1 "stale max" (fun (_, t, _) -> Histogram.max_value t.stale);
          i "commits" (fun (_, t, _) -> t.ok);
          i "aborts" (fun (_, t, _) -> t.failed);
          i "demotions" (st (fun s -> s.Ava3.Cluster.replica_demotions));
          i "promotions" (st (fun s -> s.Ava3.Cluster.replica_promotions));
          i "advancements" (st (fun s -> s.Ava3.Cluster.advancements));
          i "violations" (fun (_, _, (f : faulted)) -> f.violations);
        ];
  }

let print_replication ~horizon =
  Report.print (e13 ~horizon)
    (pmap (replication ~seed:97L ~horizon) [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* E14 — secondary indexes: indexed vs full-scan analytical mix        *)
(* ------------------------------------------------------------------ *)

(* One driver run of the analytical mix (point queries + attribute-range
   scans + hash joins alongside the update stream, periodic advancement
   underneath) against a given access-path plan.  Identical seeds give
   identical generated workloads — arrivals, roots, predicates — across
   plans, and because AVA3 updates never wait for queries or advancement
   the update stream's commit/abort outcome is plan-independent: the
   access path only moves the analytical latency and the staleness (slow
   full scans hold query counters longer, delaying Phase 2).
   [`Both_check] runs both plans back to back at every serving node and
   raises on any divergence, so including it in the sweep makes the whole
   experiment an equivalence oracle.  Returns the driver report, the
   index maintenance and probe counts over all sites, the stats and the
   invariant violations. *)
let analytical ~seed ~horizon (name, plan) =
  let keys_per_node = 40 in
  let cluster, report =
    drive_ava3 ~seed ~split_first:true
      ~make:(fun engine ->
        Baseline.Ava3_db.create ~engine
          ~config:
            {
              Ava3.Config.default with
              read_service_time = 0.2;
              write_service_time = 0.3;
            }
          ~advancement_period:60.0 ~advancement_until:horizon
          ~index:Baseline.Ava3_db.default_extract ~scan_plan:plan ~nodes:3 ())
      ~load:(fun db ~node keys ->
        Baseline.Ava3_db.load db ~node
          (List.mapi (fun i (k, _) -> (k, (node * keys_per_node) + i)) keys))
      ~keyspace:(Keyspace.create ~nodes:3 ~keys_per_node ~theta:0.8)
      ~spec:
        {
          Driver.default_spec with
          duration = horizon;
          update_rate = 0.4;
          query_rate = 0.3;
          scan_fraction = 0.3;
          join_fraction = 0.1;
        }
      ~experiment:"E14-analytical" ~label:name ()
  in
  let violations = List.length (Ava3.Cluster.check_invariants cluster) in
  let updates = ref 0 and probes = ref 0 in
  for i = 0 to Ava3.Cluster.node_count cluster - 1 do
    match Ava3.Node_state.index (Ava3.Cluster.node cluster i) with
    | Some ix ->
        let s = Vindex.Index.stats ix in
        updates := !updates + s.Vindex.Index.updates;
        probes := !probes + s.Vindex.Index.probes
    | None -> ()
  done;
  (name, report, (!updates, !probes), Ava3.Cluster.stats cluster, violations)

let e14 ~horizon :
    (string * Driver.report * (int * int) * Ava3.Cluster.stats * int) Report.table
    =
  let r f = fun (_, (report : Driver.report), _, _, _) -> f report in
  {
    title =
      "E14: indexed vs full-scan analytical mix (3 nodes, 30% scans + 10% \
       joins in the query stream, periodic advancement; both-check row is \
       the equivalence oracle)";
    columns =
      Report.
        [
          s "plan" (fun (name, _, _, _, _) -> name);
          i "commits" (r (fun r -> r.committed));
          i "aborts" (r (fun r -> r.aborted));
          i "queries ok" (r (fun r -> r.queries_ok));
          i "scans" (r (fun r -> r.scans_ok));
          i "joins" (r (fun r -> r.joins_ok));
          f2 "scan mean" (r (fun r -> Histogram.mean r.scan_latency));
          f2 "scan p95" (r (fun r -> Histogram.percentile r.scan_latency 0.95));
          f2 "join mean" (r (fun r -> Histogram.mean r.join_latency));
          f2 "joins/100t"
            (r (fun r -> float_of_int r.joins_ok /. horizon *. 100.0));
          f2 "stale mean" (r (fun r -> Histogram.mean r.staleness));
          f1 "stale max" (r (fun r -> Histogram.max_value r.staleness));
          i "idx updates" (fun (_, _, (updates, _), _, _) -> updates);
          i "idx probes" (fun (_, _, (_, probes), _, _) -> probes);
          i "advancements" (fun (_, _, _, s, _) -> s.Ava3.Cluster.advancements);
          i "violations" (fun (_, _, _, _, violations) -> violations);
        ];
  }

let print_analytical ~horizon =
  let rows =
    pmap
      (analytical ~seed:41L ~horizon)
      [ ("index", `Index); ("full-scan", `Full_scan); ("both-check", `Both_check) ]
  in
  Report.print (e14 ~horizon) rows;
  (* The driver generates identical workloads across plans and updates
     never wait for queries, so the update stream's outcome must be
     byte-identical: any drift means the access path leaked into
     transaction semantics. *)
  let outcome (_, (r : Driver.report), _, _, _) =
    (r.committed, r.aborted, r.queries_ok, r.scans_ok, r.joins_ok)
  in
  if
    List.for_all (fun row -> outcome row = outcome (List.hd rows)) rows
    && List.for_all (fun (_, _, _, _, violations) -> violations = 0) rows
  then
    print_endline
      "E14: commit/abort/query counters identical across plans; no \
       invariant violations"
  else
    failwith
      "E14 VIOLATION: access-path plan changed transaction outcomes or \
       invariants failed"

(* ------------------------------------------------------------------ *)
(* E15 — session layer: goodput and wasted work vs retry policy        *)
(* ------------------------------------------------------------------ *)

(* One retry policy against the session-layer client mix: a few sessions
   each run a seeded [Session.Dsl.gen] program (savepoint scopes,
   expect-abort rollbacks, occasional queries) while a nemesis schedule
   crashes nodes and cuts links underneath and advancement beats keep
   versions moving.  Everything random — the generated programs, the
   fault schedule, the invariant-probe instants — draws from named forks
   of the engine's root stream, so every policy row faces the exact same
   workload and faults; only the retry discipline differs.  Returns the
   programs' summary, the (retries, savepoint rollbacks, backoff time)
   the metrics counted, and the faulted-run observations. *)
let session_retry ~seed ~horizon (name, max_retries, backoff_base) =
  let nodes = 3 and keys_per_node = 8 and nsessions = 3 in
  let txns = max 4 (int_of_float (horizon /. 120.0)) in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      read_service_time = 0.3;
      write_service_time = 0.5;
      rpc_timeout = 20.0;
      advancement_retry = 40.0;
      max_retries;
      retry_backoff_base = backoff_base;
    }
  in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~config ~nodes () in
  for n = 0 to nodes - 1 do
    Ava3.Cluster.load db ~node:n
      (List.init keys_per_node (fun i -> (Session.Dsl.gen_key ~node:n i, i)))
  done;
  let root = Sim.Engine.rng engine in
  let gen_rng = Sim.Rng.fork_named root "e15-gen" in
  let programs =
    List.init nsessions (fun _ ->
        Session.Dsl.gen ~rng:gen_rng ~nodes ~keys_per_node ~txns)
  in
  let summary = ref Session.Dsl.empty_summary in
  let plan =
    Net.Nemesis.random_plan
      ~rng:(Sim.Rng.fork_named root "e15-nemesis")
      ~nodes ~horizon:(horizon /. 1.5) ~crashes:2 ~partitions:2 ~slow_links:1
      ~min_duration:20.0 ~max_duration:60.0 ~extra_latency:3.0 ()
  in
  let probe_rng = Sim.Rng.fork_named root "e15-probes" in
  let f =
    (* Advancement beats so retried work lands across several versions;
       backoff sleeps and timeout detection extend past the horizon, so
       the wall is a livelock check, not a deadline. *)
    under_faults ~engine db ~plan ~beat:45.0 ~horizon
      ~initiator:(fun k -> Some (k mod nodes))
      ~workload:(fun () ->
        List.iteri
          (fun i prog ->
            Sim.Engine.schedule engine ~name:(Printf.sprintf "session-%d" i)
              ~delay:(1.0 +. (5.0 *. float_of_int i))
              (fun () ->
                let s = Session.create db ~seed:(Int64.of_int (1000 + i)) in
                summary := Session.Dsl.add_summary !summary (Session.Dsl.run s prog)))
          programs)
      ~probes:(List.init 10 (fun _ -> Sim.Rng.float probe_rng horizon))
      ~until:(horizon *. 10.0) ~experiment:"E15-sessions" ~label:name ()
  in
  let retries, rollbacks, backoff =
    List.fold_left
      (fun (r, sp, b) (n : Sim.Metrics.node_snapshot) ->
        (r + n.session_retries, sp + n.savepoint_rollbacks, b +. n.session_backoff))
      (0, 0, 0.0)
      (Ava3.Cluster.metrics_snapshot db)
  in
  (name, !summary, (retries, rollbacks, backoff), f)

let e15 ~horizon :
    (string * Session.Dsl.summary * (int * int * float) * faulted) Report.table =
  let sum f = fun (_, (s : Session.Dsl.summary), _, _) -> f s in
  {
    title =
      "E15: session goodput and wasted work vs retry policy (3 sessions of \
       seeded DSL programs, 2 crashes + 2 partitions + 1 slow link, \
       advancement beats; same workload and faults in every row)";
    columns =
      Report.
        [
          s "policy" (fun (name, _, _, _) -> name);
          i "committed" (sum (fun s -> s.committed));
          i "failed" (sum (fun s -> s.failed));
          i "attempts" (sum (fun s -> s.attempts));
          (* Attempts that did not end in a commit — locks taken, RPCs sent
             and log records written for nothing. *)
          i "wasted" (sum (fun s -> s.attempts - s.committed));
          i "retries" (fun (_, _, (retries, _, _), _) -> retries);
          f1 "backoff" (fun (_, _, (_, _, backoff), _) -> backoff);
          i "sp-rollbacks" (fun (_, _, (_, rollbacks, _), _) -> rollbacks);
          i "queries" (sum (fun s -> s.queries));
          i "q-failures" (sum (fun s -> s.query_failures));
          f2 "goodput/100t"
            (sum (fun s -> float_of_int s.committed /. horizon *. 100.0));
          i "violations" (fun (_, _, _, (f : faulted)) -> f.violations);
        ];
  }

let print_session_retry ~horizon =
  let rows =
    pmap
      (session_retry ~seed:59L ~horizon)
      [
        ("no-retry", 0, 5.0);
        ("retry-2", 2, 5.0);
        ("retry-5", 5, 5.0);
        ("retry-5-eager", 5, 0.0);
      ]
  in
  Report.print (e15 ~horizon) rows;
  (* Every policy row runs the same generated programs, so the program
     count — committed + failed — must agree across rows, and no row may
     trip an invariant probe or stall the simulation. *)
  let programs (_, (s : Session.Dsl.summary), _, _) = s.committed + s.failed in
  if
    List.for_all (fun row -> programs row = programs (List.hd rows)) rows
    && List.for_all (fun (_, _, _, (f : faulted)) -> f.violations = 0) rows
  then
    print_endline
      "E15: program counts identical across policies; no invariant violations"
  else
    failwith
      "E15 VIOLATION: retry policy changed the program count or an \
       invariant/livelock check failed"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let suites =
  [
    ("invariants", print_invariants);
    ("staleness", print_staleness);
    ("comparison", print_comparison);
    ("movetofuture", print_move_to_future);
    ("centralized", print_centralized);
    ("ablations", print_ablations);
    ("scalability", print_scalability);
    ("e12", fun () -> print_hierarchy [ 64; 256; 1024 ]);
    ("e12smoke", fun () -> print_hierarchy [ 256 ]);
    ("faults", print_faults);
    ("batching", print_batching);
    ("e13", fun () -> print_replication ~horizon:1000.0);
    ("e13smoke", fun () -> print_replication ~horizon:300.0);
    ("e14", fun () -> print_analytical ~horizon:1500.0);
    ("e14smoke", fun () -> print_analytical ~horizon:300.0);
    ("e15", fun () -> print_session_retry ~horizon:1200.0);
    ("e15smoke", fun () -> print_session_retry ~horizon:300.0);
  ]
