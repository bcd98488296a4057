module Update = Ava3.Update_exec
module Driver = Workload.Driver
module Histogram = Workload.Histogram

(* Every run below builds its own engine, RNG, keyspace and store, so the
   sweeps are share-nothing and fan out across domains via [Sim.Pool.map]
   (gated by AVA3_DOMAINS; results come back in input order, so the
   printed tables are identical at any domain count). *)
let pmap = Sim.Pool.map

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
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let db =
    Baseline.Ava3_db.create ~engine ~advancement_period:(duration /. 12.0)
      ~advancement_until:duration ~nodes ()
  in
  let ks = Workload.Keyspace.create ~nodes ~keys_per_node:80 ~theta:0.8 in
  for n = 0 to nodes - 1 do
    Baseline.Ava3_db.load db ~node:n
      (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
  done;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let cluster = Baseline.Ava3_db.cluster db in
  let probes = ref 0 and violations = ref 0 in
  (* Probe the invariants at random instants while the workload runs. *)
  for _ = 1 to 200 do
    let delay = Sim.Rng.float rng duration in
    Sim.Engine.schedule engine ~delay (fun () ->
        incr probes;
        violations :=
          !violations + List.length (Ava3.Cluster.check_invariants cluster))
  done;
  (* Load scales with the cluster so bigger topologies do more work. *)
  let spec =
    {
      Driver.default_spec with
      duration;
      update_rate = 0.12 *. float_of_int nodes;
      query_rate = 0.06 *. float_of_int nodes;
      ops_per_update = (2, 4);
      long_query_period = duration /. 8.0;
      long_query_reads = 40;
    }
  in
  let report =
    Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks ~spec
  in
  incr probes;
  violations := !violations + List.length (Ava3.Cluster.check_invariants cluster);
  violations :=
    !violations + List.length (Ava3.Cluster.check_quiescent_invariants cluster);
  let stats = Ava3.Cluster.stats cluster in
  Report.record_metrics ~experiment:"E3-invariants"
    ~label:(Printf.sprintf "nodes=%d" nodes)
    (Ava3.Cluster.metrics_snapshot cluster);
  {
    probes = !probes;
    violations = !violations;
    max_versions_ever = stats.Ava3.Cluster.max_versions_ever;
    advancements = stats.Ava3.Cluster.advancements;
    commits = report.Driver.committed;
    queries = report.Driver.queries_ok;
  }

let print_invariants () =
  let rows =
    pmap
      (fun nodes ->
        let r = invariants ~nodes ~duration:1500.0 () in
        [
          Report.i nodes;
          Report.i r.probes;
          Report.i r.violations;
          Report.i r.max_versions_ever;
          Report.i r.advancements;
          Report.i r.commits;
          Report.i r.queries;
        ])
      [ 1; 3; 5 ]
  in
  Report.print ~title:"E3: §6.2 invariants under random load"
    ~header:
      [ "nodes"; "probes"; "violations"; "max-versions"; "advancements"; "commits"; "queries" ]
    ~rows

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

let staleness_one ?(seed = 23L) ~period ~eager () =
  let duration = 2000.0 in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    { Ava3.Config.default with eager_counter_handoff = eager }
  in
  let db =
    Baseline.Ava3_db.create ~engine ~config ~advancement_period:period
      ~advancement_until:duration ~nodes:3 ()
  in
  let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.8 in
  for n = 0 to 2 do
    Baseline.Ava3_db.load db ~node:n
      (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
  done;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let spec =
    {
      Driver.default_spec with
      duration;
      update_rate = 0.2;
      query_rate = 0.25;
      ops_per_update = (2, 4);
    }
  in
  let report =
    Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks ~spec
  in
  let h = report.Driver.staleness in
  let stats = Ava3.Cluster.stats (Baseline.Ava3_db.cluster db) in
  Report.record_metrics ~experiment:"E4-staleness"
    ~label:(Printf.sprintf "period=%g eager=%b" period eager)
    (Ava3.Cluster.metrics_snapshot (Baseline.Ava3_db.cluster db));
  {
    period;
    eager;
    mean_staleness = Histogram.mean h;
    p95_staleness = Histogram.percentile h 0.95;
    max_staleness = Histogram.max_value h;
    advancements_done = stats.Ava3.Cluster.advancements;
  }

let staleness_sweep ?(seed = 23L) ?(periods = [ 25.0; 50.0; 100.0; 200.0; 400.0 ])
    ?domains ~eager () =
  pmap ?domains (fun period -> staleness_one ~seed ~period ~eager ()) periods

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

type continuous_point = {
  query_duration : float;  (* measured mean query duration, network included *)
  cont_mean : float;
  cont_p95 : float;
  cont_max : float;
  rounds : int;
}

(* §8 limiting mode: advancements run back to back (overlapping GC), so a
   query's snapshot is stale by at most roughly the age of the longest query
   running when it started — here, the query duration itself. *)
let continuous_one ?(seed = 47L) ~query_duration () =
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
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let db =
    Baseline.Ava3_db.create ~engine ~config ~advancement_period:0.0 ~nodes:3 ()
  in
  Ava3.Cluster.start_continuous_advancement (Baseline.Ava3_db.cluster db)
    ~coordinator:0 ~until:duration;
  let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.8 in
  for n = 0 to 2 do
    Baseline.Ava3_db.load db ~node:n
      (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
  done;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let spec =
    {
      Driver.default_spec with
      duration;
      update_rate = 0.15;
      query_rate = 0.1;
      ops_per_update = (1, 3);
      reads_per_query = (reads_per_query, reads_per_query);
    }
  in
  let report =
    Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks ~spec
  in
  let h = report.Driver.staleness in
  let stats = Ava3.Cluster.stats (Baseline.Ava3_db.cluster db) in
  Report.record_metrics ~experiment:"E4c-continuous"
    ~label:(Printf.sprintf "query_duration=%g" query_duration)
    (Ava3.Cluster.metrics_snapshot (Baseline.Ava3_db.cluster db));
  {
    (* Report the measured query duration — remote reads add network
       latency on top of the nominal storage time. *)
    query_duration = Histogram.mean report.Driver.query_latency;
    cont_mean = Histogram.mean h;
    cont_p95 = Histogram.percentile h 0.95;
    cont_max = Histogram.max_value h;
    rounds = stats.Ava3.Cluster.advancements;
  }

let continuous_staleness ?(seed = 47L) ?(durations = [ 5.0; 20.0; 60.0 ]) ?domains
    () =
  pmap ?domains (fun d -> continuous_one ~seed ~query_duration:d ()) durations

let print_staleness () =
  let render eager =
    let points = staleness_sweep ~eager () in
    List.map
      (fun p ->
        [
          Report.f1 p.period;
          (if p.eager then "yes" else "no");
          Report.f1 p.mean_staleness;
          Report.f1 p.p95_staleness;
          Report.f1 p.max_staleness;
          Report.i p.advancements_done;
        ])
      points
  in
  Report.print ~title:"E4a: query staleness vs advancement period (AVA3, 3 nodes)"
    ~header:[ "period"; "eager"; "mean"; "p95"; "max"; "advancements" ]
    ~rows:(render false @ render true);
  let b = staleness_bound () in
  Report.print
    ~title:
      "E4b: publish lag with one long update transaction (bound: txn \
       duration; §8 optimisation removes it)"
    ~header:[ "long txn"; "lag (base)"; "lag (eager hand-off)" ]
    ~rows:
      [
        [
          Report.f1 b.long_txn_duration;
          Report.f1 b.publish_lag_plain;
          Report.f1 b.publish_lag_eager;
        ];
      ];
  let rows =
    List.map
      (fun p ->
        [
          Report.f1 p.query_duration;
          Report.f1 p.cont_mean;
          Report.f1 p.cont_p95;
          Report.f1 p.cont_max;
          Report.i p.rounds;
        ])
      (continuous_staleness ())
  in
  Report.print
    ~title:
      "E4c: continuous advancement (§8 limit) — staleness bounded by the \
       longest concurrent query"
    ~header:[ "query duration (measured)"; "staleness mean"; "p95"; "max"; "rounds" ]
    ~rows

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

let comparison_spec duration =
  {
    Driver.default_spec with
    duration;
    update_rate = 0.25;
    query_rate = 0.12;
    ops_per_update = (2, 4);
    long_query_period = 120.0;
    long_query_reads = 60;
  }

let comparison ?(seed = 31L) ?(duration = 2000.0) ?domains () =
  let spec = comparison_spec duration in
  let keyspace () = Workload.Keyspace.create ~nodes:3 ~keys_per_node:60 ~theta:0.9 in
  let run_one (type db) (module Db : Workload.Db_intf.DB with type t = db)
      (make : Sim.Engine.t -> db)
      (load : db -> node:int -> (string * int) list -> unit)
      ~interference_of =
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let db = make engine in
    let ks = keyspace () in
    for n = 0 to 2 do
      load db ~node:n
        (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
    done;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let report = Driver.run (module Db) db ~engine ~rng ~keyspace:ks ~spec in
    (match Db.metrics_snapshot db with
    | Some m -> Report.record_metrics ~experiment:"E5-comparison" ~label:Db.name m
    | None -> ());
    let extra = Db.extra_stats db in
    let get key = Option.value (List.assoc_opt key extra) ~default:0.0 in
    {
      protocol = Db.name;
      committed = report.Driver.committed;
      aborted = report.Driver.aborted;
      update_p95 = Histogram.percentile report.Driver.update_latency 0.95;
      query_p95 = Histogram.percentile report.Driver.query_latency 0.95;
      long_query_p95 = Histogram.percentile report.Driver.long_query_latency 0.95;
      staleness_mean = Histogram.mean report.Driver.staleness;
      max_versions = Db.max_versions_ever db;
      lock_wait_time = get "lock_wait_time";
      interference_metric = interference_of extra;
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
          Baseline.Ava3_db.load
          ~interference_of:(fun _ -> 0.0));
      (fun () ->
        run_one
          (module Baseline.S2pl)
          (fun engine -> Baseline.S2pl.create ~engine ~nodes:3 ())
          Baseline.S2pl.load
          ~interference_of:(fun extra ->
            Option.value (List.assoc_opt "lock_wait_time" extra) ~default:0.0));
      (fun () ->
        run_one
          (module Baseline.Two_version)
          (fun engine -> Baseline.Two_version.create ~engine ~nodes:3 ())
          Baseline.Two_version.load
          ~interference_of:(fun extra ->
            Option.value (List.assoc_opt "commit_delay" extra) ~default:0.0));
      (fun () ->
        run_one
          (module Baseline.Mvcc)
          (fun engine -> Baseline.Mvcc.create ~engine ~nodes:3 ())
          Baseline.Mvcc.load
          ~interference_of:(fun _ -> 0.0));
      (fun () ->
        run_one
          (module Baseline.Four_version)
          (fun engine ->
            Baseline.Four_version.create ~engine ~advancement_period:100.0
              ~advancement_until:duration ~nodes:3 ())
          Baseline.Four_version.load
          ~interference_of:(fun extra ->
            Option.value (List.assoc_opt "mismatch_aborts" extra) ~default:0.0));
    ]

let print_comparison () =
  let rows =
    List.map
      (fun r ->
        [
          r.protocol;
          Report.i r.committed;
          Report.i r.aborted;
          Report.f2 r.update_p95;
          Report.f2 r.query_p95;
          Report.f2 r.long_query_p95;
          Report.f1 r.staleness_mean;
          Report.i r.max_versions;
          Report.f1 r.lock_wait_time;
          Report.f1 r.interference_metric;
        ])
      (comparison ())
  in
  Report.print
    ~title:
      "E5: protocols under one mixed workload (3 nodes, Zipf 0.95, long \
       queries every 120)"
    ~header:
      [
        "protocol";
        "commits";
        "aborts";
        "upd p95";
        "qry p95";
        "longq p95";
        "staleness";
        "max-vers";
        "lock-wait";
        "interference";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E6 — moveToFuture                                                   *)
(* ------------------------------------------------------------------ *)

type mtf_row = {
  scheme_name : string;
  piggyback : bool;
  advancement_period : float;
  commits : int;
  mtf_data : int;
  mtf_commit : int;
  mtf_trivial : int;
  items_copied : int;
}

let move_to_future ?(seed = 37L) ?(duration = 2000.0) ?domains () =
  let run ~scheme ~piggyback ~period =
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let config =
      { Ava3.Config.default with scheme; piggyback_version = piggyback }
    in
    let db =
      Baseline.Ava3_db.create ~engine ~config ~advancement_period:period
        ~advancement_until:duration ~nodes:3 ()
    in
    let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.9 in
    for n = 0 to 2 do
      Baseline.Ava3_db.load db ~node:n
        (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
    done;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let spec =
      {
        Driver.default_spec with
        duration;
        update_rate = 0.3;
        query_rate = 0.05;
        remote_fraction = 0.5;
        ops_per_update = (3, 6);
      }
    in
    let report = Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks ~spec in
    let stats = Ava3.Cluster.stats (Baseline.Ava3_db.cluster db) in
    Report.record_metrics ~experiment:"E6-movetofuture"
      ~label:
        (Printf.sprintf "scheme=%s piggyback=%b period=%g"
           (Wal.Scheme.kind_name scheme) piggyback period)
      (Ava3.Cluster.metrics_snapshot (Baseline.Ava3_db.cluster db));
    {
      scheme_name = Wal.Scheme.kind_name scheme;
      piggyback;
      advancement_period = period;
      commits = report.Driver.committed;
      mtf_data = stats.Ava3.Cluster.mtf_data_access;
      mtf_commit = stats.Ava3.Cluster.mtf_commit_time;
      mtf_trivial = stats.Ava3.Cluster.mtf_trivial;
      items_copied = stats.Ava3.Cluster.mtf_items_copied;
    }
  in
  let cells =
    List.concat_map
      (fun period ->
        List.concat_map
          (fun scheme ->
            List.map (fun piggyback -> (scheme, piggyback, period)) [ false; true ])
          [ Wal.Scheme.No_undo; Wal.Scheme.Undo_redo ])
      [ 50.0; 200.0 ]
  in
  pmap ?domains (fun (scheme, piggyback, period) -> run ~scheme ~piggyback ~period) cells

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

let print_move_to_future () =
  let rows =
    List.map
      (fun r ->
        [
          r.scheme_name;
          (if r.piggyback then "yes" else "no");
          Report.f1 r.advancement_period;
          Report.i r.commits;
          Report.i r.mtf_data;
          Report.i r.mtf_commit;
          Report.i r.mtf_trivial;
          Report.i r.items_copied;
        ])
      (move_to_future ())
  in
  Report.print
    ~title:
      "E6: moveToFuture frequency and cost (§4, §10 piggyback ablation)"
    ~header:
      [
        "scheme";
        "piggyback";
        "adv period";
        "commits";
        "mtf@data";
        "mtf@commit";
        "trivial";
        "items copied";
      ]
    ~rows;
  let p = piggyback_targeted () in
  Report.print
    ~title:"E6b: §10 piggyback on transactions that straddle an advancement"
    ~header:[ "staged straddlers"; "commit-mtf (plain)"; "commit-mtf (piggyback)" ]
    ~rows:
      [
        [
          Report.i p.staged;
          Report.i p.commit_mtf_plain;
          Report.i p.commit_mtf_piggyback;
        ];
      ]

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
  let spec =
    {
      Driver.default_spec with
      duration;
      update_rate = 0.25;
      query_rate = 0.05;
      remote_fraction = 0.6;
      ops_per_update = (3, 6);
    }
  in
  let ks () = Workload.Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.85 in
  let ava3_run () =
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let ava3 =
      Baseline.Ava3_db.create ~engine ~advancement_period:40.0
        ~advancement_until:duration ~nodes:3 ()
    in
    let keyspace = ks () in
    for n = 0 to 2 do
      Baseline.Ava3_db.load ava3 ~node:n
        (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys keyspace ~node:n))
    done;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let _ = Driver.run (module Baseline.Ava3_db) ava3 ~engine ~rng ~keyspace ~spec in
    let stats = Ava3.Cluster.stats (Baseline.Ava3_db.cluster ava3) in
    Report.record_metrics ~experiment:"E7b-sync-aborts" ~label:"ava3"
      (Ava3.Cluster.metrics_snapshot (Baseline.Ava3_db.cluster ava3));
    (* AVA3 aborts only come from deadlocks; advancement adds none.  Report
       aborts minus deadlock victims (which exist in both systems). *)
    ( stats.Ava3.Cluster.aborts - stats.Ava3.Cluster.deadlocks,
      stats.Ava3.Cluster.advancements )
  in
  let fourv_run () =
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let fourv =
      Baseline.Four_version.create ~engine ~advancement_period:40.0
        ~advancement_until:duration ~nodes:3 ()
    in
    let keyspace = ks () in
    for n = 0 to 2 do
      Baseline.Four_version.load fourv ~node:n
        (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys keyspace ~node:n))
    done;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let _ =
      Driver.run (module Baseline.Four_version) fourv ~engine ~rng ~keyspace ~spec
    in
    Report.record_metrics ~experiment:"E7b-sync-aborts" ~label:"four-version-sync"
      (Ava3.Cluster.metrics_snapshot (Baseline.Four_version.cluster fourv));
    Baseline.Four_version.mismatch_aborts fourv
  in
  match
    pmap
      (fun run -> run ())
      [
        (fun () -> `Ava3 (ava3_run ()));
        (fun () -> `Fourv (fourv_run ()));
      ]
  with
  | [ `Ava3 (ava3_aborts, advancements); `Fourv mismatch ] ->
      {
        ava3_aborts_from_advancement = ava3_aborts;
        fourv_mismatch_aborts = mismatch;
        advancements_during_run = advancements;
      }
  | _ -> assert false

let print_centralized () =
  let rows =
    List.map
      (fun r ->
        [
          r.variant;
          Report.i r.max_versions;
          Report.i r.steady_versions;
          Report.f1 r.advancement_mean_latency;
          Report.i r.advancements;
        ])
      (centralized ())
  in
  Report.print
    ~title:"E7a: centralized — versions kept vs advancement latency (§7)"
    ~header:
      [ "variant"; "max versions"; "steady versions"; "adv latency (mean)"; "advancements" ]
    ~rows;
  let s = sync_advancement_aborts () in
  Report.print
    ~title:"E7b: distributed — advancement-induced aborts (§1, §9)"
    ~header:[ "protocol"; "advancement-induced aborts"; "advancements" ]
    ~rows:
      [
        [ "ava3"; Report.i s.ava3_aborts_from_advancement; Report.i s.advancements_during_run ];
        [ "four-version-sync"; Report.i s.fourv_mismatch_aborts; Report.i s.advancements_during_run ];
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
  let run ~name ~config =
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let db =
      Baseline.Ava3_db.create ~engine ~config ~advancement_period:75.0
        ~advancement_until:duration ~nodes:3 ()
    in
    let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:80 ~theta:0.85 in
    for n = 0 to 2 do
      Baseline.Ava3_db.load db ~node:n
        (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
    done;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let spec =
      {
        Driver.default_spec with
        duration;
        update_rate = 0.25;
        query_rate = 0.2;
        ops_per_update = (2, 4);
        remote_fraction = 0.5;
      }
    in
    let report =
      Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks ~spec
    in
    let stats = Ava3.Cluster.stats (Baseline.Ava3_db.cluster db) in
    Report.record_metrics ~experiment:"E8-ablations" ~label:name
      (Ava3.Cluster.metrics_snapshot (Baseline.Ava3_db.cluster db));
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
  pmap ?domains
    (fun (name, config) -> run ~name ~config)
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
  items_visited : int;  (** total GC work with the version index *)
  full_scan_equivalent : int;  (** items * rounds — the naive cost *)
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

let print_ablations () =
  let rows =
    List.map
      (fun r ->
        [
          r.ablation;
          Report.i r.abl_commits;
          Report.i r.abl_messages;
          Report.i r.abl_latches;
          Report.i r.abl_mtf;
          Report.f1 r.abl_staleness;
        ])
      (ablations ())
  in
  Report.print
    ~title:"E8a: optimisation ablations (same workload and seed)"
    ~header:[ "configuration"; "commits"; "messages"; "latches"; "mtf"; "staleness" ]
    ~rows;
  let rows =
    List.map
      (fun g ->
        [
          g.gc_rule;
          Report.i g.store_items;
          Report.i g.gc_rounds;
          Report.i g.items_visited;
          Report.i g.full_scan_equivalent;
        ])
      (gc_cost ())
  in
  Report.print
    ~title:
      "E8b: Phase-3 GC work, version-indexed (50 of 5000 items written per \
       round)"
    ~header:
      [ "gc rule"; "store items"; "gc rounds"; "items visited"; "full-scan equivalent" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E9 — advancement scalability with cluster size                      *)
(* ------------------------------------------------------------------ *)

type scalability_row = {
  sc_nodes : int;
  sc_advancement_latency : float;  (** mean time for a full idle round *)
  sc_messages_per_round : float;
  sc_commits : int;
  sc_staleness : float;
}

(* Version advancement costs 5n messages per round (advance-u/ack,
   advance-q/ack, garbage-collect) and two ack-collection barriers; latency
   should stay near-constant with n while messages grow linearly.  The
   protocol cost is measured on an idle cluster (a loaded one would conflate
   transaction RPC traffic); throughput and staleness come from a loaded
   run of the same size. *)
let scalability ?(seed = 67L) ?domains () =
  let idle_round_cost nodes =
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
  let run nodes =
    let duration = 1200.0 in
    let idle_latency, idle_messages = idle_round_cost nodes in
    let engine = Sim.Engine.create ~seed ~trace:false () in
    let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~nodes () in
    let ks = Workload.Keyspace.create ~nodes ~keys_per_node:40 ~theta:0.8 in
    for n = 0 to nodes - 1 do
      Ava3.Cluster.load db ~node:n
        (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
    done;
    Ava3.Cluster.start_periodic_advancement db ~coordinator:0 ~period:100.0
      ~until:duration;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let spec =
      {
        Driver.default_spec with
        duration;
        update_rate = 0.08 *. float_of_int nodes;
        query_rate = 0.05 *. float_of_int nodes;
        ops_per_update = (2, 4);
      }
    in
    (* Drive the workload directly on this cluster. *)
    let committed = ref 0 in
    let staleness = Histogram.create () in
    List.iter
      (fun at ->
        Sim.Engine.schedule engine ~delay:at (fun () ->
            let root = Sim.Rng.int rng nodes in
            let lo, hi = spec.Driver.ops_per_update in
            let ops =
              List.init (Sim.Rng.int_in rng lo hi) (fun _ ->
                  let n = Sim.Rng.int rng nodes in
                  Ava3.Update_exec.Write
                    {
                      node = n;
                      key = Workload.Keyspace.draw_at ks rng ~node:n;
                      value = Sim.Rng.int rng 1000;
                    })
            in
            match
              Ava3.Txn_core.retry (fun () ->
                  Ava3.Cluster.run_update db ~root ~ops)
            with
            | Ava3.Update_exec.Committed _, _ -> incr committed
            | _ -> ()))
      (List.init
         (int_of_float (spec.Driver.update_rate *. duration))
         (fun i -> float_of_int i /. spec.Driver.update_rate));
    List.iter
      (fun at ->
        Sim.Engine.schedule engine ~delay:at (fun () ->
            let root = Sim.Rng.int rng nodes in
            let q =
              Ava3.Cluster.run_query db ~root
                ~reads:[ (root, Workload.Keyspace.draw_at ks rng ~node:root) ]
            in
            Option.iter (Histogram.add staleness) q.Ava3.Query_exec.staleness))
      (List.init
         (int_of_float (spec.Driver.query_rate *. duration))
         (fun i -> float_of_int i /. spec.Driver.query_rate));
    Sim.Engine.run engine;
    Report.record_metrics ~experiment:"E9-scalability"
      ~label:(Printf.sprintf "nodes=%d" nodes)
      (Ava3.Cluster.metrics_snapshot db);
    {
      sc_nodes = nodes;
      sc_advancement_latency = idle_latency;
      sc_messages_per_round = idle_messages;
      sc_commits = !committed;
      sc_staleness = Histogram.mean staleness;
    }
  in
  pmap ?domains run [ 1; 2; 4; 8; 16 ]

let print_scalability () =
  let rows =
    List.map
      (fun r ->
        [
          Report.i r.sc_nodes;
          Report.f1 r.sc_advancement_latency;
          Report.f1 r.sc_messages_per_round;
          Report.i r.sc_commits;
          Report.f1 r.sc_staleness;
        ])
      (scalability ())
  in
  Report.print
    ~title:
      "E9: advancement cost vs cluster size (per-node load held constant)"
    ~header:
      [ "nodes"; "adv latency (mean)"; "messages/round"; "commits"; "staleness" ]
    ~rows

type tree_vs_flat_row = {
  fanout : int;  (** remote nodes touched per transaction *)
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

let print_tree_vs_flat () =
  let rows =
    List.map
      (fun r ->
        [ Report.i r.fanout; Report.f1 r.flat_latency; Report.f1 r.tree_latency ])
      (tree_vs_flat ())
  in
  Report.print
    ~title:
      "E8c: flat vs R*-tree transaction execution (latency 2.0/hop, one \
       write per node)"
    ~header:[ "remote nodes"; "flat latency"; "tree latency" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E10 — availability and advancement latency under faults             *)
(* ------------------------------------------------------------------ *)

type faults_row = {
  fl_scenario : string;
  fl_commits : int;
  fl_aborts : int;
  fl_timeout_aborts : int;
  fl_queries_ok : int;
  fl_queries_failed : int;
  fl_advancements : int;
  fl_max_adv_gap : float;
  fl_violations : int;
}

(* One cluster under a seeded nemesis.  Faults are drawn from the engine's
   RNG before anything runs, so the schedule (and hence every number in
   the row) is a pure function of [seed] — identical at any AVA3_DOMAINS
   width.  Advancement is driven by a non-blocking initiator that always
   picks the first *alive* node; when a coordinator dies mid-round the
   same beat re-initiates the stalled round via the §3.2 path, so stalls
   are bounded by the initiation period plus the repair time, and queries
   keep reading their snapshots throughout. *)
let faults_one ?(seed = 73L) ~scenario ~crashes ~partitions ~slow_links () =
  let nodes = 3 and horizon = 1000.0 in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      rpc_timeout = 10.0;
      advancement_retry = 30.0;
    }
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
  Net.Nemesis.install ~engine (Ava3.Cluster.nemesis_target db) plan;
  let key n = Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng 20) in
  (* Advancement initiator: every beat, the first alive node initiates (or
     re-initiates a stalled round — Advancement.initiate tells the two
     apart from local state). *)
  let first_alive () =
    let rec go k =
      if k >= nodes then None
      else if Ava3.Node_state.alive (Ava3.Cluster.node db k) then Some k
      else go (k + 1)
    in
    go 0
  in
  let adv_period = 50.0 in
  let n_beats = int_of_float (horizon /. adv_period) in
  for b = 1 to n_beats do
    Sim.Engine.schedule engine ~delay:(float_of_int b *. adv_period) (fun () ->
        match first_alive () with
        | Some k -> ignore (Ava3.Cluster.advance db ~coordinator:k)
        | None -> ())
  done;
  (* Updates, with retry on transient aborts (deadlock, timeout).  Each
     attempt is inspected so timed-out *attempts* are counted even when a
     later attempt commits — that is the work the faults cost us. *)
  let commits = ref 0 and aborts = ref 0 and timeout_attempts = ref 0 in
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
              incr timeout_attempts
          | _ -> ());
          outcome
        in
        match Ava3.Txn_core.retry ~max_attempts:5 ~backoff:12.0 attempt with
        | Ava3.Update_exec.Committed _, _ -> incr commits
        | _ ->
            (* A down submission root is counted with the aborts, as the
               pre-sentinel Node_down outcome was. *)
            incr aborts)
  done;
  (* Queries: never blocked by advancement; they fail only when their root
     is down or a remote read is cut off mid-fault. *)
  let queries_ok = ref 0 and queries_failed = ref 0 in
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
        | _ -> incr queries_ok
        | exception (Net.Network.Node_down _ | Net.Network.Rpc_timeout _) ->
            incr queries_failed)
  done;
  (* Monitor: continuous invariant probes, plus the largest gap between
     advancement completions (the availability cost of the faults). *)
  let violations = ref 0 in
  let max_gap = ref 0.0 in
  let last_completion = ref 0.0 in
  let last_count = ref 0 in
  let n_probes = int_of_float (horizon /. 10.0) + 4 in
  for p = 0 to n_probes - 1 do
    Sim.Engine.schedule engine ~delay:(float_of_int p *. 10.0) (fun () ->
        violations := !violations + List.length (Ava3.Cluster.check_invariants db);
        let c = (Ava3.Cluster.stats db).Ava3.Cluster.advancements in
        let now = Sim.Engine.now engine in
        if c > !last_count then begin
          last_count := c;
          last_completion := now
        end
        else if now -. !last_completion > !max_gap then
          max_gap := now -. !last_completion)
  done;
  Sim.Engine.run engine;
  violations := !violations + List.length (Ava3.Cluster.check_invariants db);
  let stats = Ava3.Cluster.stats db in
  Report.record_metrics ~experiment:"E10-faults" ~label:scenario
    (Ava3.Cluster.metrics_snapshot db);
  {
    fl_scenario = scenario;
    fl_commits = !commits;
    fl_aborts = !aborts;
    fl_timeout_aborts = !timeout_attempts;
    fl_queries_ok = !queries_ok;
    fl_queries_failed = !queries_failed;
    fl_advancements = stats.Ava3.Cluster.advancements;
    fl_max_adv_gap = !max_gap;
    fl_violations = !violations;
  }

let faults ?seed ?domains () =
  pmap ?domains
    (fun (scenario, crashes, partitions, slow_links) ->
      faults_one ?seed ~scenario ~crashes ~partitions ~slow_links ())
    [
      ("no faults", 0, 0, 0);
      ("crashes", 2, 0, 0);
      ("partitions", 0, 2, 0);
      ("crash+partition+slow", 2, 1, 1);
    ]

let print_faults () =
  let rows =
    List.map
      (fun r ->
        [
          r.fl_scenario;
          Report.i r.fl_commits;
          Report.i r.fl_aborts;
          Report.i r.fl_timeout_aborts;
          Report.i r.fl_queries_ok;
          Report.i r.fl_queries_failed;
          Report.i r.fl_advancements;
          Report.f1 r.fl_max_adv_gap;
          Report.i r.fl_violations;
        ])
      (faults ())
  in
  Report.print
    ~title:
      "E10: availability under faults (3 nodes, rpc timeout 10, advancement \
       beat 50, horizon 1000)"
    ~header:
      [
        "scenario";
        "commits";
        "aborts";
        "timeouts";
        "queries ok";
        "q failed";
        "advancements";
        "max adv gap";
        "violations";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E11 — commit-path batching: group-commit WAL + RPC coalescing       *)
(* ------------------------------------------------------------------ *)

type batching_row = {
  bt_label : string;
  bt_gc_window : float;
  bt_rpc_window : float;
  bt_commits : int;
  bt_throughput : float;
  bt_commit_mean : float;
  bt_commit_p95 : float;
  bt_disk_forces : int;
  bt_records_per_force : float;
  bt_envelopes : int;
  bt_messages : int;
}

(* One run: [workers] clients per node, each committing a fixed count of
   two-site updates on its own private keys (no lock conflicts — the run
   measures the commit path, not contention).  The disk force latency is
   the dominant cost: with the window at 0 every committer queues on the
   serial disk for its own force, with a window one force covers the
   batch.  The work is identical in every row (same seed, same fixed
   transaction count, hence the same logical message count), so forces,
   envelopes and the makespan-derived throughput are directly
   comparable. *)
let batching_one ?(seed = 211L) ~label ~gc_window ~rpc_window () =
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
  let stats = Ava3.Cluster.stats db in
  Report.record_metrics ~experiment:"E11-batching" ~label
    (Ava3.Cluster.metrics_snapshot db);
  {
    bt_label = label;
    bt_gc_window = gc_window;
    bt_rpc_window = rpc_window;
    bt_commits = !commits;
    bt_throughput = float_of_int !commits /. makespan;
    bt_commit_mean = Histogram.mean lat;
    bt_commit_p95 = Histogram.percentile lat 0.95;
    bt_disk_forces = stats.Ava3.Cluster.disk_forces;
    bt_records_per_force =
      (if stats.Ava3.Cluster.disk_forces = 0 then 0.0
       else
         float_of_int stats.Ava3.Cluster.records_forced
         /. float_of_int stats.Ava3.Cluster.disk_forces);
    bt_envelopes = stats.Ava3.Cluster.envelopes;
    bt_messages = stats.Ava3.Cluster.messages;
  }

let batching ?seed ?domains () =
  pmap ?domains
    (fun (label, gc_window, rpc_window) ->
      batching_one ?seed ~label ~gc_window ~rpc_window ())
    [
      ("off", 0.0, 0.0);
      ("w=1", 1.0, 0.25);
      ("w=4", 4.0, 1.0);
      ("w=16", 16.0, 4.0);
    ]

let print_batching () =
  let rows =
    List.map
      (fun r ->
        [
          r.bt_label;
          Report.f1 r.bt_gc_window;
          Report.f2 r.bt_rpc_window;
          Report.i r.bt_commits;
          Report.f2 r.bt_throughput;
          Report.f1 r.bt_commit_mean;
          Report.f1 r.bt_commit_p95;
          Report.i r.bt_disk_forces;
          Report.f1 r.bt_records_per_force;
          Report.i r.bt_envelopes;
          Report.i r.bt_messages;
        ])
      (batching ())
  in
  Report.print
    ~title:
      "E11: commit-path batching (3 nodes, 6 clients/node, 24 txns each, \
       disk force 2.0)"
    ~header:
      [
        "batching";
        "gc win";
        "rpc win";
        "commits";
        "commits/s";
        "lat mean";
        "lat p95";
        "forces";
        "recs/force";
        "envelopes";
        "messages";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E12 — hierarchical advancement at scale                             *)
(* ------------------------------------------------------------------ *)

type hierarchy_row = {
  hr_nodes : int;
  hr_mode : string;
  hr_rounds : int;
  hr_phase1_mean : float;
  hr_phase2_mean : float;
  hr_coord_egress : float;
  hr_commits : int;
  hr_aborts : int;
  hr_mtf : int;
  hr_events_per_sec : float;
}

(* One run: a cluster of [nodes] sites whose data lives on the first
   max(2, nodes/8) of them, driven by a Zipf-skewed (hot-partition),
   storm-bursty update/query mix confined to the data sites.  The
   coordinator is the last site — it hosts no data and runs no
   transactions, so its network egress is purely advancement-protocol
   traffic and divides cleanly by the number of completed rounds.  Rows
   run sequentially in this domain so the wall-clock events/sec figures
   are not distorted by sibling domains. *)
let hierarchy_one ~seed ~nodes ~mode ~tree_arity ~partition_aware =
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
    (Workload.Driver.arrival_times rng
       ~rate:(0.02 *. float_of_int data_sites)
       ~duration ~storm_factor:3.0 ~storm_period:150.0 ());
  List.iter
    (fun at ->
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let root = pick_site () in
          ignore (Ava3.Cluster.run_query db ~root ~reads:[ (root, pick_key root) ])))
    (Workload.Driver.arrival_times rng
       ~rate:(0.02 *. float_of_int data_sites)
       ~duration ~storm_factor:3.0 ~storm_period:150.0 ());
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run engine;
  let wall = Unix.gettimeofday () -. t0 in
  let snapshot = Ava3.Cluster.metrics_snapshot db in
  Report.record_metrics ~experiment:"E12-hierarchy"
    ~label:(Printf.sprintf "nodes=%d mode=%s" nodes mode)
    snapshot;
  let hist_totals f =
    List.fold_left
      (fun (c, s) (n : Sim.Metrics.node_snapshot) ->
        let h : Sim.Metrics.hist_snapshot = f n in
        (c + h.Sim.Metrics.count, s +. h.Sim.Metrics.sum))
      (0, 0.0) snapshot
  in
  let mean f =
    let c, s = hist_totals f in
    if c = 0 then 0.0 else s /. float_of_int c
  in
  let stats = Ava3.Cluster.stats db in
  let rounds = stats.Ava3.Cluster.advancements in
  let net = Ava3.Cluster.network db in
  let egress = ref 0 in
  for dst = 0 to nodes - 1 do
    egress := !egress + Net.Network.link_count net ~src:coordinator ~dst
  done;
  {
    hr_nodes = nodes;
    hr_mode = mode;
    hr_rounds = rounds;
    hr_phase1_mean = mean (fun n -> n.Sim.Metrics.phase1_duration);
    hr_phase2_mean = mean (fun n -> n.Sim.Metrics.phase2_duration);
    hr_coord_egress =
      (if rounds = 0 then 0.0
       else float_of_int !egress /. float_of_int rounds);
    hr_commits = stats.Ava3.Cluster.commits;
    hr_aborts = stats.Ava3.Cluster.aborts;
    hr_mtf = stats.Ava3.Cluster.mtf_data_access + stats.Ava3.Cluster.mtf_commit_time;
    hr_events_per_sec =
      (if wall <= 0.0 then 0.0
       else float_of_int (Sim.Engine.events_executed engine) /. wall);
  }

let hierarchy ?(seed = 83L) ?(sizes = [ 64; 256; 1024 ]) () =
  let modes =
    [ ("flat", 0, false); ("tree-8", 8, false); ("tree-8+pa", 8, true) ]
  in
  List.concat_map
    (fun nodes ->
      List.map
        (fun (mode, tree_arity, partition_aware) ->
          hierarchy_one ~seed ~nodes ~mode ~tree_arity ~partition_aware)
        modes)
    sizes

let print_hierarchy ?sizes () =
  let rows =
    List.map
      (fun r ->
        [
          Report.i r.hr_nodes;
          r.hr_mode;
          Report.i r.hr_rounds;
          Report.f2 r.hr_phase1_mean;
          Report.f2 r.hr_phase2_mean;
          Report.f1 r.hr_coord_egress;
          Report.i r.hr_commits;
          Report.i r.hr_aborts;
          Report.i r.hr_mtf;
          Printf.sprintf "%.0fk" (r.hr_events_per_sec /. 1000.0);
        ])
      (hierarchy ?sizes ())
  in
  Report.print
    ~title:
      "E12: hierarchical advancement at scale (hot Zipf partitions, arrival \
       storms; data on n/8 sites)"
    ~header:
      [
        "nodes";
        "mode";
        "rounds";
        "phase1 mean";
        "phase2 mean";
        "coord msgs/round";
        "commits";
        "aborts";
        "mtf";
        "events/s";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E13 — replication: pinned backup reads under faults                 *)
(* ------------------------------------------------------------------ *)

type replication_row = {
  rp_replicas : int;
  rp_queries_ok : int;
  rp_queries_failed : int;
  rp_read_tput : float;  (* completed queries per unit virtual time *)
  rp_backup_reads : int;
  rp_stale_mean : float;
  rp_stale_p95 : float;
  rp_stale_max : float;
  rp_commits : int;
  rp_aborts : int;
  rp_demotions : int;
  rp_promotions : int;
  rp_advancements : int;
  rp_violations : int;
}

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
let replication_one ?(seed = 97L) ~replicas ~horizon () =
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
  let cs = Ava3.Cluster.state db in
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
  Net.Nemesis.install ~engine (Ava3.Cluster.nemesis_target db) plan;
  let key n = Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng keys_per) in
  (* Advancement initiator over partitions, first one whose current
     primary is alive. *)
  let first_alive () =
    let rec go p =
      if p >= nparts then None
      else if
        Ava3.Node_state.alive
          (Ava3.Cluster.node db (Ava3.Cluster_state.home_site cs p))
      then Some p
      else go (p + 1)
    in
    go 0
  in
  let adv_period = 40.0 in
  for b = 1 to int_of_float (horizon /. adv_period) do
    Sim.Engine.schedule engine ~delay:(float_of_int b *. adv_period) (fun () ->
        match first_alive () with
        | Some p -> ignore (Ava3.Cluster.advance db ~coordinator:p)
        | None -> ())
  done;
  (* Updates: open loop, modest rate, retried on transient aborts. *)
  let commits = ref 0 and aborts = ref 0 in
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
        | Update.Committed _, _ -> incr commits
        | _ -> incr aborts)
  done;
  (* Queries: closed loop, every read remote so it goes through the
     router.  Throughput is how many complete before the horizon. *)
  let queries_ok = ref 0 and queries_failed = ref 0 in
  let stale = Histogram.create () in
  let n_clients = 9 in
  for c = 0 to n_clients - 1 do
    Sim.Engine.schedule engine ~delay:(0.5 *. float_of_int c) (fun () ->
        while Sim.Engine.now engine < horizon do
          let root = c mod nparts in
          let reads =
            List.init 2 (fun i ->
                let n = (root + 1 + ((c + i) mod (nparts - 1))) mod nparts in
                (n, key n))
          in
          (match Ava3.Cluster.run_query db ~root ~reads with
          | (q : int Ava3.Query_exec.result) ->
              incr queries_ok;
              (match
                 Ava3.Cluster.staleness_of_version db ~version:q.version
                   ~at:(Sim.Engine.now engine)
               with
              | Some age -> Histogram.add stale age
              | None -> ())
          | exception (Net.Network.Node_down _ | Net.Network.Rpc_timeout _) ->
              incr queries_failed);
          Sim.Engine.sleep 1.0
        done)
  done;
  let violations = ref 0 in
  for p = 0 to int_of_float (horizon /. 10.0) do
    Sim.Engine.schedule engine ~delay:(float_of_int p *. 10.0) (fun () ->
        violations := !violations + List.length (Ava3.Cluster.check_invariants db))
  done;
  Sim.Engine.run engine;
  violations := !violations + List.length (Ava3.Cluster.check_invariants db);
  let stats = Ava3.Cluster.stats db in
  Report.record_metrics ~experiment:"E13-replication"
    ~label:(Printf.sprintf "replicas=%d" replicas)
    (Ava3.Cluster.metrics_snapshot db);
  {
    rp_replicas = replicas;
    rp_queries_ok = !queries_ok;
    rp_queries_failed = !queries_failed;
    rp_read_tput = float_of_int !queries_ok /. horizon;
    rp_backup_reads = stats.Ava3.Cluster.backup_reads;
    rp_stale_mean = Histogram.mean stale;
    rp_stale_p95 = Histogram.percentile stale 0.95;
    rp_stale_max = Histogram.max_value stale;
    rp_commits = !commits;
    rp_aborts = !aborts;
    rp_demotions = stats.Ava3.Cluster.replica_demotions;
    rp_promotions = stats.Ava3.Cluster.replica_promotions;
    rp_advancements = stats.Ava3.Cluster.advancements;
    rp_violations = !violations;
  }

let replication ?seed ?(horizon = 1000.0) ?domains () =
  pmap ?domains
    (fun replicas -> replication_one ?seed ~replicas ~horizon ())
    [ 0; 1; 2 ]

let print_replication ?horizon () =
  let rows =
    List.map
      (fun r ->
        [
          Report.i r.rp_replicas;
          Report.i r.rp_queries_ok;
          Report.i r.rp_queries_failed;
          Report.f2 r.rp_read_tput;
          Report.i r.rp_backup_reads;
          Report.f2 r.rp_stale_mean;
          Report.f2 r.rp_stale_p95;
          Report.f1 r.rp_stale_max;
          Report.i r.rp_commits;
          Report.i r.rp_aborts;
          Report.i r.rp_demotions;
          Report.i r.rp_promotions;
          Report.i r.rp_advancements;
          Report.i r.rp_violations;
        ])
      (replication ?horizon ())
  in
  Report.print
    ~title:
      "E13: pinned backup reads under faults (3 partitions, 2 crashes + 2 \
       link partitions, closed-loop cross-partition queries)"
    ~header:
      [
        "replicas";
        "queries ok";
        "q failed";
        "reads/t";
        "backup reads";
        "stale mean";
        "stale p95";
        "stale max";
        "commits";
        "aborts";
        "demotions";
        "promotions";
        "advancements";
        "violations";
      ]
    ~rows

(* ------------------------------------------------------------------ *)
(* E14 — secondary indexes: indexed vs full-scan analytical mix        *)
(* ------------------------------------------------------------------ *)

type analytical_row = {
  an_plan : string;
  an_commits : int;
  an_aborts : int;
  an_queries_ok : int;
  an_scans : int;
  an_joins : int;
  an_scan_mean : float;
  an_scan_p95 : float;
  an_join_mean : float;
  an_join_tput : float;  (* completed joins per 100 time units *)
  an_stale_mean : float;
  an_stale_max : float;
  an_index_updates : int;
  an_index_probes : int;
  an_advancements : int;
  an_violations : int;
}

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
   experiment an equivalence oracle. *)
let analytical_one ?(seed = 41L) ~plan ~horizon () =
  let nodes = 3 and keys_per_node = 40 in
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let ks = Workload.Keyspace.create ~nodes ~keys_per_node ~theta:0.8 in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let config =
    {
      Ava3.Config.default with
      read_service_time = 0.2;
      write_service_time = 0.3;
    }
  in
  let db =
    Baseline.Ava3_db.create ~engine ~config ~advancement_period:60.0
      ~advancement_until:horizon ~index:Baseline.Ava3_db.default_extract
      ~scan_plan:plan ~nodes ()
  in
  for n = 0 to nodes - 1 do
    Baseline.Ava3_db.load db ~node:n
      (List.mapi
         (fun i k -> (k, (n * keys_per_node) + i))
         (Workload.Keyspace.all_keys ks ~node:n))
  done;
  let spec =
    {
      Workload.Driver.default_spec with
      duration = horizon;
      update_rate = 0.4;
      query_rate = 0.3;
      scan_fraction = 0.3;
      join_fraction = 0.1;
    }
  in
  let report =
    Workload.Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks
      ~spec
  in
  let cluster = Baseline.Ava3_db.cluster db in
  let violations = List.length (Ava3.Cluster.check_invariants cluster) in
  let index_updates = ref 0 and index_probes = ref 0 in
  for i = 0 to Ava3.Cluster.node_count cluster - 1 do
    match Ava3.Node_state.index (Ava3.Cluster.node cluster i) with
    | Some ix ->
        let s = Vindex.Index.stats ix in
        index_updates := !index_updates + s.Vindex.Index.updates;
        index_probes := !index_probes + s.Vindex.Index.probes
    | None -> ()
  done;
  let stats = Ava3.Cluster.stats cluster in
  let plan_name =
    match plan with
    | `Index -> "index"
    | `Full_scan -> "full-scan"
    | `Both_check -> "both-check"
  in
  Report.record_metrics ~experiment:"E14-analytical" ~label:plan_name
    (Ava3.Cluster.metrics_snapshot cluster);
  {
    an_plan = plan_name;
    an_commits = report.Workload.Driver.committed;
    an_aborts = report.Workload.Driver.aborted;
    an_queries_ok = report.Workload.Driver.queries_ok;
    an_scans = report.Workload.Driver.scans_ok;
    an_joins = report.Workload.Driver.joins_ok;
    an_scan_mean = Histogram.mean report.Workload.Driver.scan_latency;
    an_scan_p95 = Histogram.percentile report.Workload.Driver.scan_latency 0.95;
    an_join_mean = Histogram.mean report.Workload.Driver.join_latency;
    an_join_tput =
      float_of_int report.Workload.Driver.joins_ok /. horizon *. 100.0;
    an_stale_mean = Histogram.mean report.Workload.Driver.staleness;
    an_stale_max = Histogram.max_value report.Workload.Driver.staleness;
    an_index_updates = !index_updates;
    an_index_probes = !index_probes;
    an_advancements = stats.Ava3.Cluster.advancements;
    an_violations = violations;
  }

let analytical ?seed ?(horizon = 1500.0) ?domains () =
  pmap ?domains
    (fun plan -> analytical_one ?seed ~plan ~horizon ())
    [ `Index; `Full_scan; `Both_check ]

let print_analytical ?horizon () =
  let rows_data = analytical ?horizon () in
  let rows =
    List.map
      (fun r ->
        [
          r.an_plan;
          Report.i r.an_commits;
          Report.i r.an_aborts;
          Report.i r.an_queries_ok;
          Report.i r.an_scans;
          Report.i r.an_joins;
          Report.f2 r.an_scan_mean;
          Report.f2 r.an_scan_p95;
          Report.f2 r.an_join_mean;
          Report.f2 r.an_join_tput;
          Report.f2 r.an_stale_mean;
          Report.f1 r.an_stale_max;
          Report.i r.an_index_updates;
          Report.i r.an_index_probes;
          Report.i r.an_advancements;
          Report.i r.an_violations;
        ])
      rows_data
  in
  Report.print
    ~title:
      "E14: indexed vs full-scan analytical mix (3 nodes, 30% scans + 10% \
       joins in the query stream, periodic advancement; both-check row is \
       the equivalence oracle)"
    ~header:
      [
        "plan";
        "commits";
        "aborts";
        "queries ok";
        "scans";
        "joins";
        "scan mean";
        "scan p95";
        "join mean";
        "joins/100t";
        "stale mean";
        "stale max";
        "idx updates";
        "idx probes";
        "advancements";
        "violations";
      ]
    ~rows;
  (* The driver generates identical workloads across plans and updates
     never wait for queries, so the update stream's outcome must be
     byte-identical: any drift means the access path leaked into
     transaction semantics. *)
  match rows_data with
  | first :: rest ->
      let same r =
        r.an_commits = first.an_commits
        && r.an_aborts = first.an_aborts
        && r.an_queries_ok = first.an_queries_ok
        && r.an_scans = first.an_scans
        && r.an_joins = first.an_joins
      in
      if List.for_all same rest && List.for_all (fun r -> r.an_violations = 0) rows_data
      then
        print_endline
          "E14: commit/abort/query counters identical across plans; no \
           invariant violations"
      else
        failwith
          "E14 VIOLATION: access-path plan changed transaction outcomes or \
           invariants failed"
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* E15 — session layer: goodput and wasted work vs retry policy        *)
(* ------------------------------------------------------------------ *)

type session_row = {
  sn_policy : string;
  sn_committed : int;
  sn_failed : int;
  sn_attempts : int;
  sn_wasted : int;  (* attempts that did not end in a commit *)
  sn_retries : int;
  sn_backoff : float;
  sn_rollbacks : int;
  sn_queries_ok : int;
  sn_query_failures : int;
  sn_goodput : float;  (* committed transactions per 100 time units *)
  sn_violations : int;
}

(* One retry policy against the session-layer client mix: a few sessions
   each run a seeded [Session.Dsl.gen] program (savepoint scopes,
   expect-abort rollbacks, occasional queries) while a nemesis schedule
   crashes nodes and cuts links underneath and advancement beats keep
   versions moving.  Everything random — the generated programs, the
   fault schedule, the invariant-probe instants — draws from named forks
   of the engine's root stream, so every policy row faces the exact same
   workload and faults; only the retry discipline differs.  Wasted work
   is the attempt surplus: attempts that burned locks, RPCs and log
   traffic without producing a commit. *)
let session_retry_one ?(seed = 59L) ~policy:(name, max_retries, backoff_base)
    ~horizon () =
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
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~nodes ()
  in
  for n = 0 to nodes - 1 do
    Ava3.Cluster.load db ~node:n
      (List.init keys_per_node (fun i -> (Session.Dsl.gen_key ~node:n i, i)))
  done;
  let root = Sim.Engine.rng engine in
  let gen_rng = Sim.Rng.fork_named root "e15-gen" in
  let summary = ref Session.Dsl.empty_summary in
  for i = 0 to nsessions - 1 do
    let prog =
      Session.Dsl.gen ~rng:gen_rng ~nodes ~keys_per_node ~txns
    in
    Sim.Engine.schedule engine ~name:(Printf.sprintf "session-%d" i)
      ~delay:(1.0 +. (5.0 *. float_of_int i))
      (fun () ->
        let s = Session.create db ~seed:(Int64.of_int (1000 + i)) in
        summary := Session.Dsl.add_summary !summary (Session.Dsl.run s prog))
  done;
  let plan =
    Net.Nemesis.random_plan
      ~rng:(Sim.Rng.fork_named root "e15-nemesis")
      ~nodes ~horizon:(horizon /. 1.5) ~crashes:2 ~partitions:2 ~slow_links:1
      ~min_duration:20.0 ~max_duration:60.0 ~extra_latency:3.0 ()
  in
  Net.Nemesis.install ~engine (Ava3.Cluster.nemesis_target db) plan;
  (* Advancement beats so retried work lands across several versions. *)
  let beats = int_of_float (horizon /. 45.0) in
  for k = 1 to beats do
    Sim.Engine.schedule engine ~delay:(45.0 *. float_of_int k) (fun () ->
        ignore
          (Ava3.Cluster.advance db ~coordinator:(k mod nodes)
            : [ `Started of int | `Busy ]))
  done;
  let violations = ref 0 in
  let probe_rng = Sim.Rng.fork_named root "e15-probes" in
  for _ = 1 to 10 do
    Sim.Engine.schedule engine ~delay:(Sim.Rng.float probe_rng horizon)
      (fun () ->
        violations :=
          !violations + List.length (Ava3.Cluster.check_invariants db))
  done;
  (* Backoff sleeps and timeout detection extend past the horizon; the
     wall is a livelock check, not a deadline. *)
  Sim.Engine.run ~until:(horizon *. 10.0) engine;
  let stalled = Sim.Engine.pending_events engine > 0 in
  violations := !violations + List.length (Ava3.Cluster.check_invariants db);
  let retries = ref 0 and rollbacks = ref 0 and backoff = ref 0.0 in
  List.iter
    (fun (n : Sim.Metrics.node_snapshot) ->
      retries := !retries + n.session_retries;
      rollbacks := !rollbacks + n.savepoint_rollbacks;
      backoff := !backoff +. n.session_backoff)
    (Ava3.Cluster.metrics_snapshot db);
  Report.record_metrics ~experiment:"E15-sessions" ~label:name
    (Ava3.Cluster.metrics_snapshot db);
  let sum : Session.Dsl.summary = !summary in
  {
    sn_policy = name;
    sn_committed = sum.committed;
    sn_failed = sum.failed;
    sn_attempts = sum.attempts;
    sn_wasted = sum.attempts - sum.committed;
    sn_retries = !retries;
    sn_backoff = !backoff;
    sn_rollbacks = !rollbacks;
    sn_queries_ok = sum.queries;
    sn_query_failures = sum.query_failures;
    sn_goodput = float_of_int sum.committed /. horizon *. 100.0;
    sn_violations = (!violations + if stalled then 1 else 0);
  }

let session_policies =
  [
    ("no-retry", 0, 5.0);
    ("retry-2", 2, 5.0);
    ("retry-5", 5, 5.0);
    ("retry-5-eager", 5, 0.0);
  ]

let session_retry ?seed ?(horizon = 1200.0) ?domains () =
  pmap ?domains
    (fun policy -> session_retry_one ?seed ~policy ~horizon ())
    session_policies

let print_session_retry ?horizon () =
  let rows_data = session_retry ?horizon () in
  let rows =
    List.map
      (fun r ->
        [
          r.sn_policy;
          Report.i r.sn_committed;
          Report.i r.sn_failed;
          Report.i r.sn_attempts;
          Report.i r.sn_wasted;
          Report.i r.sn_retries;
          Report.f1 r.sn_backoff;
          Report.i r.sn_rollbacks;
          Report.i r.sn_queries_ok;
          Report.i r.sn_query_failures;
          Report.f2 r.sn_goodput;
          Report.i r.sn_violations;
        ])
      rows_data
  in
  Report.print
    ~title:
      "E15: session goodput and wasted work vs retry policy (3 sessions of \
       seeded DSL programs, 2 crashes + 2 partitions + 1 slow link, \
       advancement beats; same workload and faults in every row)"
    ~header:
      [
        "policy"; "committed"; "failed"; "attempts"; "wasted"; "retries";
        "backoff"; "sp-rollbacks"; "queries"; "q-failures"; "goodput/100t";
        "violations";
      ]
    ~rows;
  (* Every policy row runs the same generated programs, so the program
     count — committed + failed — must agree across rows, and no row may
     trip an invariant probe or stall the simulation. *)
  match rows_data with
  | first :: rest ->
      let total r = r.sn_committed + r.sn_failed in
      if
        List.for_all (fun r -> total r = total first) rest
        && List.for_all (fun r -> r.sn_violations = 0) rows_data
      then
        print_endline
          "E15: program counts identical across policies; no invariant \
           violations"
      else
        failwith
          "E15 VIOLATION: retry policy changed the program count or an \
           invariant/livelock check failed"
  | [] -> ()
