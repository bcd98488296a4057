(* Tests of the benchmark itself: its percentile helper, its result JSON
   (read back with a real parser), determinism per seed, and failure
   accounting. *)

open Perfbench

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 0.0))

(* {1 Percentiles} *)

let range n = List.init n (fun i -> float_of_int (i + 1))
let hist = Stats.of_list

let test_tail () =
  let t = Stats.tail (hist (range 1000)) in
  check_int "p99 of 1000" 990 t.Stats.permille;
  check_float "value" 990.0 t.Stats.value;
  check_int "count" 1000 t.Stats.n;
  (* Exactly ten samples lie beyond the reported percentile. *)
  check_int "beyond" 10 (List.length (List.filter (fun x -> x > t.Stats.value) (range 1000)));
  let t = Stats.tail (hist (range 500)) in
  check_int "500 samples: p98" 980 t.Stats.permille;
  check_int "500 samples: ten beyond" 10
    (List.length (List.filter (fun x -> x > t.Stats.value) (range 500)));
  let t = Stats.tail (hist (range 777)) in
  check_int "777 samples: ten beyond" 10
    (List.length (List.filter (fun x -> x > t.Stats.value) (range 777)));
  Alcotest.(check string) "label" "p98.7" (Stats.label t);
  let t = Stats.tail (hist (range 15)) in
  check_int "too few samples: the median" 500 t.Stats.permille;
  check_int "empty" 0 (Stats.tail (hist [])).Stats.n

let test_p50_median () =
  check_float "p50 nearest rank" 2.0 (Stats.p50 (hist [ 3.0; 1.0; 2.0 ])).Stats.value;
  check_float "p50 of two" 1.0 (Stats.p50 (hist [ 2.0; 1.0 ])).Stats.value;
  check_float "median of even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check_float "median of odd" 3.0 (Stats.median [ 5.0; 3.0; 1.0 ]);
  check_float "lower quartile" 2.0 (Stats.quartile ~upper:false (range 8));
  check_float "upper quartile" 6.0 (Stats.quartile ~upper:true (range 8));
  Alcotest.(check string) "label" "p99" (Stats.label (Stats.tail (hist (range 2000))))

(* A parent [0, 10] whose children cover [1, 5] and [8, 10] of it has six
   units covered and four of self time. *)
let test_self_time () =
  let span id parent start stop =
    { Spans.id; name = "s"; layer = (if parent < 0 then "client" else "session");
      clock = Spans.Virtual; start; stop; parent; trace = 0 }
  in
  let rows =
    Spans.self_times [ span 0 (-1) 0.0 10.0; span 1 0 1.0 3.0; span 2 0 2.0 5.0; span 3 0 8.0 20.0 ]
  in
  let self layer = (List.find (fun (r : Spans.self_row) -> r.s_layer = layer) rows).s_self in
  check_float "parent self time" 4.0 (self "client");
  check_float "children have no children" 17.0 (self "session")

(* {1 Result JSON, read back with the parser} *)

let field k v =
  match Json.member k v with
  | Some x -> x
  | None -> Alcotest.failf "missing key %s" k

let keys = function
  | Json.Obj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "not an object"

let sample_result =
  {
    Bench.attempted = 1200;
    failed = 3;
    metrics = [ ("setup_s", 0.0123456789012345); ("txn_per_s", 18234.5); ("commit_vt_p99", 1e-7) ];
    pcts = [];
    violations = [];
    spans = [];
    reps = 4;
  }

let test_result_json () =
  List.iter
    (fun trace ->
      let line = Json.to_string (Bench.result_json ~trace sample_result) in
      let v = Json.parse line in
      Alcotest.(check (list string)) "top-level keys"
        [ "correct"; "attempted"; "failed"; "metrics" ] (keys v);
      Alcotest.(check bool) "correct" true (field "correct" v = Json.Bool true);
      Alcotest.(check bool) "attempted" true (field "attempted" v = Json.Num 1200.0);
      Alcotest.(check bool) "failed" true (field "failed" v = Json.Num 3.0);
      let metrics = field "metrics" v in
      let table = if trace then Bench.per_layer else Bench.end_to_end in
      Alcotest.(check (list string)) "one entry per metric of the table"
        (List.map (fun (n, _, _) -> n) table) (keys metrics);
      List.iter
        (fun (name, unit, _) ->
          let m = field name metrics in
          Alcotest.(check (list string)) "metric keys" [ "value"; "unit" ] (keys m);
          Alcotest.(check bool) "unit" true (field "unit" m = Json.Str unit);
          let want = Option.value ~default:0.0 (List.assoc_opt name sample_result.Bench.metrics) in
          match field "value" m with
          | Json.Num x -> check_float ("exact round trip of " ^ name) want x
          | _ -> Alcotest.fail "value is not a number")
        table)
    [ false; true ]

let test_parser () =
  let v = Json.parse {| {"a": [1, -2.5e3, true, null, "x\"é"], "b": {}} |} in
  Alcotest.(check bool) "nested" true
    (v
    = Json.Obj
        [
          ( "a",
            Json.Arr [ Json.Num 1.0; Json.Num (-2500.0); Json.Bool true; Json.Null; Json.Str "x\"\xc3\xa9" ]
          );
          ("b", Json.Obj []);
        ]);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Json.Parse_error _ -> ())
    [ "{"; "01"; "1."; "[1,]"; "{} x"; "\"a"; "nul"; "-"; "{\"a\" 1}" ]

(* BENCHMARK.json names exactly the benchmark's workloads and metrics. *)
let test_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let v = Json.parse text in
  let names k =
    match field k v with
    | Json.Arr xs -> List.map (fun x -> match field "name" x with Json.Str s -> s | _ -> "?") xs
    | _ -> Alcotest.failf "%s is not a list" k
  in
  let metric_units k =
    match field k v with
    | Json.Arr xs ->
        List.map (fun x -> (field "name" x, field "unit" x, field "better" x)) xs
    | _ -> Alcotest.failf "%s is not a list" k
  in
  let table t =
    List.map
      (fun (n, u, b) ->
        (Json.Str n, Json.Str u, Json.Str (match b with Bench.Lower -> "lower" | Bench.Higher -> "higher")))
      t
  in
  List.iter
    (fun w -> Alcotest.(check bool) ("known workload " ^ w) true (List.mem w Bench.workloads))
    (names "workloads");
  Alcotest.(check bool) "end_to_end" true (metric_units "end_to_end" = table Bench.end_to_end);
  Alcotest.(check bool) "per_layer" true (metric_units "per_layer" = table Bench.per_layer)

(* {1 Determinism and failure accounting on small copies of the workloads} *)

let once spec ~seed =
  let env = Des.setup spec ~seed ~tracer:Spans.off in
  Des.spawn_clients env;
  Alcotest.(check bool) "run completes" true (Des.run env);
  Des.settle env;
  Alcotest.(check (list string)) "checks pass" [] env.Des.obs.Des.violations;
  env

let figures env = Des.figures (Des.tally env)

let test_determinism () =
  List.iter
    (fun spec ->
      let spec = Des.shrink spec in
      let a = figures (once spec ~seed:11) and b = figures (once spec ~seed:11) in
      Alcotest.(check bool) (spec.Des.name ^ ": same seed, identical figures") true (a = b);
      let c = figures (once spec ~seed:12) in
      Alcotest.(check bool) (spec.Des.name ^ ": another seed, another run") true (a <> c))
    [ Des.oltp; Des.analytics ]

(* Without retries, deadlock aborts surface as failed operations: they are
   counted against attempts, and the money check still holds. *)
let test_failures_counted () =
  let spec =
    {
      (Des.shrink Des.oltp) with
      config = { Des.oltp.Des.config with Ava3.Config.max_retries = 0 };
      partitions = 2;
      accounts = 8;
      writers = 8;
      writer_ops = 60;
    }
  in
  let env = once spec ~seed:5 in
  let o = env.Des.obs in
  check_int "every operation attempted" (spec.Des.writers * spec.Des.writer_ops)
    (o.Des.txn_attempted + o.Des.query_attempted);
  Alcotest.(check bool) "some transfers failed" true (o.Des.txn_failed > 0);
  check_int "outcomes add up" o.Des.txn_attempted (o.Des.committed + o.Des.txn_failed);
  let r = Bench.run_des spec ~seed:5 ~seconds:0.0 ~trace:false in
  check_int "result attempted" (Bench.subruns * spec.Des.writers * spec.Des.writer_ops) r.Bench.attempted;
  Alcotest.(check bool) "result failed" true (r.Bench.failed > 0 && r.Bench.failed < r.Bench.attempted);
  check_float "ok_frac" (1.0 -. (float_of_int r.Bench.failed /. float_of_int r.Bench.attempted))
    (List.assoc "ok_frac" r.Bench.metrics)

(* [failover] is not in BENCHMARK.json: on some seeds it finds program
   defects (see README.md).  A small copy still runs here, so its
   fault-only paths (client deadlines, the nemesis plan, advancement from
   the first live primary, partial-commit accounting) stay built and
   exercised.  Its output checks are not asserted. *)
let test_failover_runs () =
  let spec = Des.shrink Des.failover in
  let env = Des.setup spec ~seed:11 ~tracer:Spans.off in
  Des.spawn_clients env;
  if Des.run env then Des.settle env;
  let o = env.Des.obs in
  check_int "every operation attempted" (spec.Des.writers * spec.Des.writer_ops)
    (o.Des.txn_attempted + o.Des.query_attempted);
  check_int "outcomes add up"
    (o.Des.txn_attempted + o.Des.query_attempted)
    (o.Des.committed + o.Des.txn_failed + o.Des.queries_ok + o.Des.query_failed
   + o.Des.unanswered);
  let t = Des.tally env in
  let c k = List.assoc k t.Des.counts in
  Alcotest.(check bool) "faults reached the RPC layer" true
    (c "rpc_timeouts" +. c "aborts_node_down" > 0.0);
  Alcotest.(check bool) "sessions retried" true (c "session_retries" > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "p50 and median" `Quick test_p50_median;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
      ( "json",
        [
          Alcotest.test_case "result line" `Quick test_result_json;
          Alcotest.test_case "parser" `Quick test_parser;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "determinism per seed" `Quick test_determinism;
          Alcotest.test_case "failures counted against attempts" `Quick test_failures_counted;
          Alcotest.test_case "failover runs" `Quick test_failover_runs;
        ] );
    ]
