(* Integration tests of the experiment harness: the Table 1 and Figure 1
   reproductions must pass their own checks, and the quantitative
   experiments must show the paper's claimed shapes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let no_violations what = Alcotest.(check (list string)) what []

(* {1 Table 1} *)

let test_table1_no_undo () =
  let r = Dbsim.Table1.run ~scheme:Wal.Scheme.No_undo () in
  no_violations "table1 under no-undo" r.Dbsim.Table1.violations;
  check_bool "events recorded" true (List.length r.Dbsim.Table1.events > 20)

let test_table1_undo_redo () =
  let r = Dbsim.Table1.run ~scheme:Wal.Scheme.Undo_redo () in
  no_violations "table1 under undo-redo" r.Dbsim.Table1.violations

let test_table1_renders () =
  let r = Dbsim.Table1.run () in
  let s = Dbsim.Table1.render r in
  check_bool "mentions moveToFuture" true
    (String.length s > 500
    &&
    let needle = "moveToFuture" in
    let rec scan i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || scan (i + 1))
    in
    scan 0)

(* {1 Figure 1} *)

let test_figure1_base () =
  let f = Dbsim.Figure1.run () in
  no_violations "figure1 base" f.Dbsim.Figure1.violations;
  let t = f.Dbsim.Figure1.timings in
  check_bool "phases ordered" true
    (t.Dbsim.Figure1.advancement_started < t.Dbsim.Figure1.phase1_complete
    && t.Dbsim.Figure1.phase1_complete < t.Dbsim.Figure1.phase2_complete
    && t.Dbsim.Figure1.phase2_complete <= t.Dbsim.Figure1.gc_complete)

let test_figure1_eager () =
  let f = Dbsim.Figure1.run ~eager_handoff:true () in
  no_violations "figure1 eager" f.Dbsim.Figure1.violations

let test_figure1_durations_scale () =
  (* Doubling the long query's length stretches Phase 2 accordingly. *)
  let f1 = Dbsim.Figure1.run ~long_query_duration:60.0 () in
  let f2 = Dbsim.Figure1.run ~long_query_duration:120.0 () in
  let span f =
    f.Dbsim.Figure1.timings.Dbsim.Figure1.phase2_complete
    -. f.Dbsim.Figure1.timings.Dbsim.Figure1.phase1_complete
  in
  check_bool "phase2 tracks query length" true (span f2 > span f1 +. 30.0)

(* {1 Experiments} *)

let test_invariants_clean () =
  let r = Dbsim.Experiment.invariants ~nodes:3 ~duration:600.0 () in
  check_int "no violations" 0 r.Dbsim.Experiment.violations;
  check_bool "work happened" true
    (r.Dbsim.Experiment.commits > 50 && r.Dbsim.Experiment.advancements > 3);
  check_bool "three version bound" true (r.Dbsim.Experiment.max_versions_ever <= 3)

let test_staleness_monotone () =
  let points =
    Dbsim.Experiment.staleness_sweep ~periods:[ 50.0; 200.0 ] ~eager:false ()
  in
  match points with
  | [ fast; slow ] ->
      check_bool "staleness grows with period" true
        (slow.Dbsim.Experiment.mean_staleness
        > fast.Dbsim.Experiment.mean_staleness +. 10.0);
      check_bool "staleness bounded by period + txn time" true
        (fast.Dbsim.Experiment.max_staleness < 3.0 *. fast.Dbsim.Experiment.period)
  | _ -> Alcotest.fail "unexpected sweep size"

let test_staleness_bound_optimisation () =
  let b = Dbsim.Experiment.staleness_bound ~long_txn_duration:80.0 () in
  check_bool "plain lag tracks the long transaction" true
    (b.Dbsim.Experiment.publish_lag_plain > 0.6 *. b.Dbsim.Experiment.long_txn_duration);
  check_bool "eager hand-off cuts the lag" true
    (b.Dbsim.Experiment.publish_lag_eager
    < b.Dbsim.Experiment.publish_lag_plain /. 2.0)

let test_comparison_shapes () =
  let rows = Dbsim.Experiment.comparison ~duration:800.0 () in
  let find name =
    List.find (fun r -> r.Dbsim.Experiment.protocol = name) rows
  in
  let ava3 = find "ava3" in
  let s2pl = find "s2pl" in
  let twov = find "two-version" in
  let mvcc = find "mvcc-unbounded" in
  let fourv = find "four-version-sync" in
  (* Who wins and why — the shape of the paper's §9 comparison table. *)
  check_bool "ava3 caps versions at 3" true (ava3.Dbsim.Experiment.max_versions <= 3);
  check_bool "fourv needs an extra version slot" true
    (fourv.Dbsim.Experiment.max_versions <= 4);
  check_bool "mvcc grows beyond three versions" true
    (mvcc.Dbsim.Experiment.max_versions > 3);
  check_bool "s2pl suffers query interference" true
    (s2pl.Dbsim.Experiment.query_p95 > ava3.Dbsim.Experiment.query_p95);
  check_bool "s2pl interference is lock waiting" true
    (s2pl.Dbsim.Experiment.interference_metric
    > 10.0 *. Float.max 1.0 ava3.Dbsim.Experiment.interference_metric);
  check_bool "two-version delays writer commits" true
    (twov.Dbsim.Experiment.interference_metric > 0.0);
  check_bool "only ava3/fourv read stale data" true
    (ava3.Dbsim.Experiment.staleness_mean > 0.0
    && mvcc.Dbsim.Experiment.staleness_mean = 0.0)

let test_piggyback_targeted () =
  let p = Dbsim.Experiment.piggyback_targeted () in
  check_bool "plain straddlers need commit-time repair" true
    (p.Dbsim.Experiment.commit_mtf_plain >= p.Dbsim.Experiment.staged / 2);
  check_int "piggyback eliminates them" 0 p.Dbsim.Experiment.commit_mtf_piggyback

let test_centralized_trade () =
  match Dbsim.Experiment.centralized () with
  | [ ava3; fourv ] ->
      check_bool "ava3 keeps fewer steady versions" true
        (ava3.Dbsim.Experiment.steady_versions
        < fourv.Dbsim.Experiment.steady_versions);
      check_bool "fourv advances faster" true
        (fourv.Dbsim.Experiment.advancement_mean_latency
        < ava3.Dbsim.Experiment.advancement_mean_latency);
      check_bool "both ran advancements" true
        (ava3.Dbsim.Experiment.advancements >= 5
        && fourv.Dbsim.Experiment.advancements >= 5)
  | _ -> Alcotest.fail "expected two variants"

let test_sync_advancement_aborts () =
  let s = Dbsim.Experiment.sync_advancement_aborts () in
  check_int "ava3 advancement aborts nothing" 0
    s.Dbsim.Experiment.ava3_aborts_from_advancement;
  check_bool "synchronous scheme aborts straddlers" true
    (s.Dbsim.Experiment.fourv_mismatch_aborts > 0)



let test_ablations_consistent () =
  let rows = Dbsim.Experiment.ablations ~duration:500.0 () in
  (match rows with
  | base :: rest ->
      List.iter
        (fun r ->
          check_int "same workload commits" base.Dbsim.Experiment.abl_commits
            r.Dbsim.Experiment.abl_commits)
        rest;
      let root_only =
        List.find
          (fun r ->
            String.length r.Dbsim.Experiment.ablation >= 5
            && String.sub r.Dbsim.Experiment.ablation 0 5 = "+root")
          rows
      in
      check_bool "root-only counters cut latch work" true
        (root_only.Dbsim.Experiment.abl_latches < base.Dbsim.Experiment.abl_latches)
  | [] -> Alcotest.fail "no ablation rows")

let test_gc_cost_rules () =
  match Dbsim.Experiment.gc_cost () with
  | [ renumber; in_place ] ->
      check_int "paper rule visits what the in-place rule visits"
        in_place.Dbsim.Experiment.items_visited
        renumber.Dbsim.Experiment.items_visited;
      check_bool "both rules visit far less than a full scan" true
        (in_place.Dbsim.Experiment.items_visited * 4
        < in_place.Dbsim.Experiment.full_scan_equivalent)
  | _ -> Alcotest.fail "expected two gc rules"

let test_tree_vs_flat_latency () =
  let rows = Dbsim.Experiment.tree_vs_flat () in
  List.iter
    (fun r ->
      if r.Dbsim.Experiment.fanout >= 2 then
        check_bool "tree beats flat at fanout >= 2" true
          (r.Dbsim.Experiment.tree_latency < r.Dbsim.Experiment.flat_latency))
    rows;
  (* Tree latency stays flat while flat grows linearly. *)
  match (List.hd rows, List.nth rows (List.length rows - 1)) with
  | first, last ->
      check_bool "tree latency constant in fanout" true
        (last.Dbsim.Experiment.tree_latency
        < first.Dbsim.Experiment.tree_latency +. 2.0);
      check_bool "flat latency grows" true
        (last.Dbsim.Experiment.flat_latency
        > 3.0 *. first.Dbsim.Experiment.flat_latency)

(* {1 Golden output}

   The E6b, E8b and E8c tables rendered through their declared columns,
   byte for byte as the bench harness printed them before the sweeps
   became declared tables.  All three runs are cheap and deterministic. *)

let lines l = String.concat "\n" l ^ "\n"

let check_table name expected actual = Alcotest.(check string) name expected actual

let test_golden_e6b () =
  check_table "E6b"
    (lines
       [
         "";
         "== E6b: §10 piggyback on transactions that straddle an advancement ==";
         "staged straddlers  commit-mtf (plain)  commit-mtf (piggyback)";
         "-----------------  ------------------  ----------------------";
         "20                 20                  0";
       ])
    (Dbsim.Report.to_string Dbsim.Experiment.piggyback_table
       [ Dbsim.Experiment.piggyback_targeted () ])

let test_golden_e8b () =
  check_table "E8b"
    (lines
       [
         "";
         "== E8b: Phase-3 GC work, version-indexed (50 of 5000 items written \
          per round) ==";
         "gc rule           store items  gc rounds  items visited  full-scan \
          equivalent";
         "----------------  -----------  ---------  -------------  \
          --------------------";
         "renumber (paper)  5000         10         5900           50000";
         "in-place          5000         10         5900           50000";
       ])
    (Dbsim.Report.to_string Dbsim.Experiment.gc_cost_table
       (Dbsim.Experiment.gc_cost ()))

let test_golden_e8c () =
  check_table "E8c"
    (lines
       [
         "";
         "== E8c: flat vs R*-tree transaction execution (latency 2.0/hop, one \
          write per node) ==";
         "remote nodes  flat latency  tree latency";
         "------------  ------------  ------------";
         "1             12.0          8.0";
         "2             24.0          8.0";
         "4             48.0          8.0";
         "8             96.0          8.0";
       ])
    (Dbsim.Report.to_string Dbsim.Experiment.tree_vs_flat_table
       (Dbsim.Experiment.tree_vs_flat ()))

(* {1 Serializability checking (Theorem 6.2, executable)} *)

let test_serializability_default () =
  let v = Dbsim.Serial_check.check () in
  Alcotest.(check (list string)) "no serialization anomalies" []
    v.Dbsim.Serial_check.errors;
  Alcotest.(check bool) "meaningful history" true
    (v.Dbsim.Serial_check.transactions_checked > 30
    && v.Dbsim.Serial_check.queries_checked > 10)

let prop_serializable_histories =
  QCheck.Test.make ~name:"random histories replay serially (Theorem 6.2)"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let v = Dbsim.Serial_check.check ~seed:(Int64.of_int seed) () in
      match v.Dbsim.Serial_check.errors with
      | [] -> true
      | e :: _ -> QCheck.Test.fail_reportf "serialization anomaly: %s" e)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "dbsim"
    [
      ( "table1",
        [
          Alcotest.test_case "no-undo scheme" `Quick test_table1_no_undo;
          Alcotest.test_case "undo-redo scheme" `Quick test_table1_undo_redo;
          Alcotest.test_case "renders" `Quick test_table1_renders;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "base protocol" `Quick test_figure1_base;
          Alcotest.test_case "eager hand-off" `Quick test_figure1_eager;
          Alcotest.test_case "durations scale" `Quick test_figure1_durations_scale;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "default run" `Quick test_serializability_default;
        ]
        @ qc [ prop_serializable_histories ] );
      ( "experiments",
        [
          Alcotest.test_case "E3 invariants clean" `Slow test_invariants_clean;
          Alcotest.test_case "E4 staleness monotone" `Slow test_staleness_monotone;
          Alcotest.test_case "E4 bound optimisation" `Quick
            test_staleness_bound_optimisation;
          Alcotest.test_case "E5 comparison shapes" `Slow test_comparison_shapes;
          Alcotest.test_case "E6 piggyback targeted" `Quick test_piggyback_targeted;
          Alcotest.test_case "E7 centralized trade" `Quick test_centralized_trade;
          Alcotest.test_case "E7 sync advancement aborts" `Slow
            test_sync_advancement_aborts;
          Alcotest.test_case "E8a ablations consistent" `Slow
            test_ablations_consistent;
          Alcotest.test_case "E8b gc cost rules" `Quick test_gc_cost_rules;
          Alcotest.test_case "E8c tree vs flat" `Quick test_tree_vs_flat_latency;
        ] );
      ( "golden output",
        [
          Alcotest.test_case "E6b table" `Quick test_golden_e6b;
          Alcotest.test_case "E8b table" `Quick test_golden_e8b;
          Alcotest.test_case "E8c table" `Quick test_golden_e8c;
        ] );
    ]
