(* Reproduction harness.

   `dune exec bench/main.exe` regenerates every table and figure:
     table1          — the paper's Table 1 example execution (checked replay)
     figure1         — the paper's Figure 1 advancement time diagram (measured)
     serializability — Theorem 6.2 executable: histories replayed serially
     invariants … e15smoke — the E3–E15 sweeps, Dbsim.Experiment.suites
     check           — schedule exploration coverage and twin convictions
     index           — secondary index probe vs full scan, maintenance cost
     micro           — bechamel microbenchmarks of the core operations

   Pass suite names as arguments to run only those.  `--json`
   additionally writes BENCH_micro.json (micro ns/run, per-suite
   wall-clock, and the per-node metrics registry of every experiment
   configuration under "experiments") for machine consumption.
   Throughput is measured by perfbench/, not here.

   Experiment sweeps fan out over domains (see Sim.Pool); set
   AVA3_DOMAINS=1 to force sequential runs.  Results are identical at
   any domain count. *)

open Bechamel
open Toolkit

let json_mode = ref false
let micro_rows : (string * float) list ref = ref []
let suite_times : (string * float) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the primitive operations whose cost the paper
   argues about (latched counters, version lookups, moveToFuture).     *)
(* ------------------------------------------------------------------ *)

let bench_latch =
  let latch = Lockmgr.Latch.create "bench" in
  let cell = ref 0 in
  Test.make ~name:"latched counter incr+decr"
    (Staged.stage (fun () ->
         Lockmgr.Latch.incr_protected latch cell;
         Lockmgr.Latch.decr_protected latch cell))

let bench_store_read =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  Vstore.Store.write store "x" 0 1;
  Vstore.Store.write store "x" 1 2;
  Vstore.Store.write store "x" 2 3;
  Test.make ~name:"vstore read_le (3 live versions)"
    (Staged.stage (fun () -> ignore (Vstore.Store.read_le store "x" 1)))

let bench_store_write =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  let i = ref 0 in
  Test.make ~name:"vstore write (overwrite same version)"
    (Staged.stage (fun () ->
         incr i;
         Vstore.Store.write store "x" 0 !i))

let bench_copy_forward =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  Vstore.Store.write store "x" 0 1;
  Test.make ~name:"vstore copy_forward (overwrite dst slot)"
    (Staged.stage (fun () -> Vstore.Store.copy_forward store "x" ~src:0 ~dst:1))

(* Steady-state slot rotation: the advancement pattern — drop the oldest
   version, then write the next one.  Live count stays at 3, so the
   bounded store never spills and never raises. *)
let bench_slot_rotate =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  let v = ref 0 in
  Vstore.Store.write store "x" 0 0;
  Vstore.Store.write store "x" 1 1;
  Vstore.Store.write store "x" 2 2;
  Test.make ~name:"vstore rotate (remove oldest + write newest)"
    (Staged.stage (fun () ->
         Vstore.Store.remove_version store "x" !v;
         Vstore.Store.write store "x" (!v + 3) !v;
         incr v))

let bench_mvcc_chain_read =
  let store : int Vstore.Store.t = Vstore.Store.create () in
  for v = 0 to 63 do
    Vstore.Store.write store "x" v v
  done;
  Test.make ~name:"vstore read_le (64-version MVCC chain)"
    (Staged.stage (fun () -> ignore (Vstore.Store.read_le store "x" 0)))

let bench_zipf =
  let z = Workload.Zipf.create ~n:10_000 ~theta:0.9 in
  let rng = Sim.Rng.create 5L in
  Test.make ~name:"zipf sample (10k items)"
    (Staged.stage (fun () -> ignore (Workload.Zipf.sample z rng)))

(* moveToFuture cost under both recovery schemes, 8 touched items. *)
let mtf_once kind =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  let log = Wal.Log.create () in
  let scheme = Wal.Scheme.create kind ~store ~log in
  for i = 0 to 7 do
    Vstore.Store.write store (Printf.sprintf "k%d" i) 0 i
  done;
  let session = Wal.Scheme.begin_session scheme ~txn:1 ~version:1 in
  for i = 0 to 7 do
    Wal.Scheme.write scheme session (Printf.sprintf "k%d" i) (Some (i * 10))
  done;
  Wal.Scheme.move_to_future scheme session ~new_version:2;
  Wal.Scheme.commit scheme session ~final_version:2

let bench_mtf_no_undo =
  Test.make ~name:"moveToFuture no-undo (8 writes, incl. setup)"
    (Staged.stage (fun () -> mtf_once Wal.Scheme.No_undo))

let bench_mtf_undo_redo =
  Test.make ~name:"moveToFuture undo-redo (8 writes, incl. setup)"
    (Staged.stage (fun () -> mtf_once Wal.Scheme.Undo_redo))

let bench_centralized_txn =
  Test.make ~name:"centralized update transaction (sim end-to-end)"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create ~trace:false () in
         let db : int Ava3.Centralized.t =
           Ava3.Centralized.create ~engine
             ~config:
               {
                 Ava3.Config.default with
                 read_service_time = 0.0;
                 write_service_time = 0.0;
               }
             ()
         in
         Ava3.Centralized.load db [ ("x", 0) ];
         Sim.Engine.spawn engine (fun () ->
             ignore (Ava3.Centralized.run_update db ~ops:[ Write ("x", 1) ]));
         Sim.Engine.run engine))

let micro_tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s %s"
    [
      bench_latch;
      bench_store_read;
      bench_store_write;
      bench_copy_forward;
      bench_slot_rotate;
      bench_mvcc_chain_read;
      bench_zipf;
      bench_mtf_no_undo;
      bench_mtf_undo_redo;
      bench_centralized_txn;
    ]

(* Operation name and ns/run, for the micro and index tables. *)
let ns_table title : (string * float) Dbsim.Report.table =
  { title; columns = Dbsim.Report.[ s "operation" fst; f1 "ns/run" snd ] }

let run_micro () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> (name, e) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  micro_rows := estimates;
  Dbsim.Report.print (ns_table "microbenchmarks (bechamel, monotonic clock)") estimates

(* ------------------------------------------------------------------ *)
(* Secondary index: probe vs full scan, and maintenance overhead       *)
(* ------------------------------------------------------------------ *)

(* Direct wall-clock timing (bechamel is overkill for these loops): a
   populated three-slot store with an attached index, measuring the
   read-path win (probe vs full scan at the same version) and the
   write-path cost (store writes with and without the index listener).
   Recorded for BENCH_index.json and the --json "index" key. *)
let index_rows : (string * float) list ref = ref []

let index_bench_keys = 4096
let index_extract v = Printf.sprintf "a%03d" (((v mod 1000) + 1000) mod 1000)

let timed_ns name ~iters f =
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    f i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let ns = dt /. float_of_int iters *. 1e9 in
  index_rows := !index_rows @ [ (name, ns) ];
  ns

let populated_store () =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  for i = 0 to index_bench_keys - 1 do
    Vstore.Store.write store (Printf.sprintf "k%06d" i) 0 i
  done;
  store

let run_index_bench () =
  index_rows := [];
  let store = populated_store () in
  let ix = Vindex.Index.attach store ~extract:index_extract in
  (* ~4 matches per attribute value out of 4096 keys: the selective-probe
     regime the index exists for. *)
  ignore
    (timed_ns "probe (selective, 4k keys)" ~iters:2000 (fun i ->
         let a = Printf.sprintf "a%03d" (i mod 1000) in
         ignore (Vindex.Index.probe ix ~lo:a ~hi:a 0)));
  ignore
    (timed_ns "full scan (same predicate)" ~iters:50 (fun i ->
         let a = Printf.sprintf "a%03d" (i mod 1000) in
         ignore (Vindex.Index.full_scan ix ~lo:a ~hi:a 0)));
  ignore
    (timed_ns "probe (10% range)" ~iters:500 (fun i ->
         let lo = Printf.sprintf "a%03d" (i mod 900) in
         let hi = Printf.sprintf "a%03d" ((i mod 900) + 100) in
         ignore (Vindex.Index.probe ix ~lo ~hi 0)));
  Vindex.Index.detach ix;
  (* Write-path overhead: the same overwrite loop with no listener, then
     with the index maintaining itself through the listener. *)
  let bare = populated_store () in
  let plain =
    timed_ns "store write (no index)" ~iters:20_000 (fun i ->
        Vstore.Store.write bare (Printf.sprintf "k%06d" (i mod index_bench_keys)) 0 i)
  in
  let indexed_store = populated_store () in
  let ix2 = Vindex.Index.attach indexed_store ~extract:index_extract in
  let with_ix =
    timed_ns "store write (indexed)" ~iters:20_000 (fun i ->
        Vstore.Store.write indexed_store
          (Printf.sprintf "k%06d" (i mod index_bench_keys))
          0 i)
  in
  Vindex.Index.detach ix2;
  index_rows :=
    !index_rows @ [ ("maintenance overhead ns/write", with_ix -. plain) ];
  Dbsim.Report.print
    (ns_table "secondary index: probe vs full scan, maintenance")
    !index_rows;
  let oc = open_out "BENCH_index.json" in
  Printf.fprintf oc "{\n  \"index_ns_per_run\": {\n%s\n  }\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (name, ns) -> Printf.sprintf "    \"%s\": %.1f" name ns)
          !index_rows));
  close_out oc;
  print_endline "wrote BENCH_index.json"

(* ------------------------------------------------------------------ *)
(* Paper artifacts                                                     *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  print_endline "\n== Table 1: example execution (paper §5), replayed ==";
  let r = Dbsim.Table1.run () in
  print_string (Dbsim.Table1.render r);
  (match r.Dbsim.Table1.violations with
  | [] -> print_endline "table 1: all checks passed"
  | vs ->
      List.iter (Printf.printf "table 1 VIOLATION: %s\n") vs;
      exit 1);
  (* The same execution under the in-place recovery scheme. *)
  let r2 = Dbsim.Table1.run ~scheme:Wal.Scheme.Undo_redo () in
  match r2.Dbsim.Table1.violations with
  | [] -> print_endline "table 1 (undo-redo scheme): all checks passed"
  | vs ->
      List.iter (Printf.printf "table 1 undo-redo VIOLATION: %s\n") vs;
      exit 1

let run_figure1 () =
  print_endline "\n== Figure 1: version-advancement time diagram (paper §8) ==";
  let f = Dbsim.Figure1.run () in
  print_string (Dbsim.Figure1.render f);
  (match f.Dbsim.Figure1.violations with
  | [] -> print_endline "figure 1: all checks passed"
  | vs ->
      List.iter (Printf.printf "figure 1 VIOLATION: %s\n") vs;
      exit 1);
  print_endline "\n-- with the §8 eager counter hand-off --";
  let fe = Dbsim.Figure1.run ~eager_handoff:true () in
  print_string (Dbsim.Figure1.render fe);
  match fe.Dbsim.Figure1.violations with
  | [] -> print_endline "figure 1 (eager hand-off): all checks passed"
  | vs ->
      List.iter (Printf.printf "figure 1 eager VIOLATION: %s\n") vs;
      exit 1

let run_serializability () =
  let verdict (v : Dbsim.Serial_check.verdict) =
    match v.errors with [] -> "serializable" | e :: _ -> "ANOMALY: " ^ e
  in
  let rows =
    Sim.Pool.map
      (fun seed -> (seed, Dbsim.Serial_check.check ~seed:(Int64.of_int seed) ()))
      [ 1; 2; 3; 4; 5 ]
  in
  Dbsim.Report.print
    {
      title =
        "Theorem 6.2, executable: record histories, replay the claimed serial \
         order";
      columns =
        Dbsim.Report.
          [
            i "seed" fst;
            i "transactions" (fun (_, v) -> v.Dbsim.Serial_check.transactions_checked);
            i "queries" (fun (_, v) -> v.Dbsim.Serial_check.queries_checked);
            s "verdict" (fun (_, v) -> verdict v);
          ];
    }
    rows;
  if List.exists (fun (_, v) -> v.Dbsim.Serial_check.errors <> []) rows then exit 1

(* Schedule exploration (lib/check): per-scenario coverage statistics,
   recorded for the JSON dump under "check".  Self-verifying like the
   other suites — a violation in a clean scenario fails the run. *)
let check_stats : (string * Explorer.stats) list ref = ref []

let run_check () =
  let budget = 2_000 in
  let rows =
    List.map
      (fun sc ->
        let r = Explorer.explore ~budget sc in
        check_stats := !check_stats @ [ (r.Explorer.scenario, r.Explorer.stats) ];
        (match r.Explorer.violation with
        | Some v ->
            Printf.eprintf "check %s found a violation:\n" r.Explorer.scenario;
            List.iter (fun m -> Printf.eprintf "  %s\n" m) v.Explorer.v_messages;
            exit 1
        | None -> ());
        (sc.Scenario.name, r.Explorer.stats))
      [
        Scenarios.race2; Scenarios.mtf_race; Scenarios.crash_advance;
        Scenarios.group_commit_crash; Scenarios.table1_3site;
        Scenarios.relay_crash; Scenarios.backup_promotion;
        Scenarios.index_mtf_race; Scenarios.savepoint_rollback;
        Scenarios.session_dsl; Scenarios.toy_safe;
      ]
  in
  let stat header f = Dbsim.Report.i header (fun (_, s) -> f s) in
  print_endline
    (Dbsim.Report.grid
       [
         Dbsim.Report.s "scenario" fst;
         stat "schedules" (fun s -> s.Explorer.schedules);
         stat "completed" (fun s -> s.Explorer.completed);
         stat "pruned" (fun s -> s.Explorer.pruned);
         stat "distinct" (fun s -> s.Explorer.distinct_states);
         stat "max-depth" (fun s -> s.Explorer.max_depth);
         Dbsim.Report.s "exhausted" (fun (_, s) -> string_of_bool s.Explorer.exhausted);
       ]
       rows);
  (* Conviction self-tests: the deliberately broken twins must be caught
     within budget — if the explorer stops finding these bugs, the
     oracles have gone blind. *)
  List.iter
    (fun (buggy, budget) ->
      (* The defect windows are a few events wide, so conviction needs a
         deeper sweep than the clean scenarios' coverage passes. *)
      let r = Explorer.explore ~budget buggy in
      check_stats := !check_stats @ [ (r.Explorer.scenario, r.Explorer.stats) ];
      match r.Explorer.violation with
      | Some v ->
          Printf.printf "check %s: convicted as expected (%s)\n"
            buggy.Scenario.name
            (match v.Explorer.v_messages with m :: _ -> m | [] -> "")
      | None ->
          Printf.eprintf "check %s: NO violation found but one was expected\n"
            buggy.Scenario.name;
          exit 1)
    [
      (Scenarios.replica_ack_early_buggy, 5_000);
      (Scenarios.index_skip_mtf_buggy, 2_000);
      (Scenarios.savepoint_leak_buggy, 2_000);
    ]

let experiments =
  [ ("table1", run_table1); ("figure1", run_figure1); ("serializability", run_serializability) ]
  @ Dbsim.Experiment.suites
  @ [ ("check", run_check); ("index", run_index_bench); ("micro", run_micro) ]

(* ------------------------------------------------------------------ *)
(* Driver: per-suite wall-clock, optional JSON dump                    *)
(* ------------------------------------------------------------------ *)

let timed name run =
  let t0 = Unix.gettimeofday () in
  run ();
  let dt = Unix.gettimeofday () -. t0 in
  suite_times := !suite_times @ [ (name, dt) ];
  Printf.printf "[%s: %.2fs wall-clock]\n%!" name dt

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path =
  let field (name, v) = Printf.sprintf "    \"%s\": %g" (json_escape name) v in
  let obj fields = String.concat ",\n" (List.map field fields) in
  let oc = open_out path in
  (* Per-node protocol metrics (commits/aborts by reason, moveToFutures,
     advancement phase durations, RPC latency histograms) for every
     experiment configuration that ran, sorted — see Dbsim.Report. *)
  let metrics_json =
    Dbsim.Report.metrics_to_json (Dbsim.Report.metrics_records ())
  in
  let check_json =
    let one (name, (s : Explorer.stats)) =
      Printf.sprintf
        "    \"%s\": {\"schedules\": %d, \"completed\": %d, \"pruned\": %d, \
         \"distinct_states\": %d, \"choice_points\": %d, \"max_depth\": %d, \
         \"exhausted\": %b, \"elapsed_s\": %g}"
        (json_escape name) s.Explorer.schedules s.Explorer.completed
        s.Explorer.pruned s.Explorer.distinct_states s.Explorer.choice_points
        s.Explorer.max_depth s.Explorer.exhausted s.Explorer.elapsed_s
    in
    match !check_stats with
    | [] -> "{}"
    | stats -> "{\n" ^ String.concat ",\n" (List.map one stats) ^ "\n  }"
  in
  (* Every suite owns one stable top-level key, so downstream tooling can
     key on suite names without parsing row labels: "micro_ns_per_run",
     "index", "suite_wall_clock_s", "check", "experiments". *)
  Printf.fprintf oc
    "{\n\
    \  \"domains\": %d,\n\
    \  \"micro_ns_per_run\": {\n%s\n  },\n\
    \  \"index\": {\n%s\n  },\n\
    \  \"suite_wall_clock_s\": {\n%s\n  },\n\
    \  \"check\": %s,\n\
    \  \"experiments\": %s\n\
     }\n"
    (Sim.Pool.default_domains ())
    (obj !micro_rows) (obj !index_rows) (obj !suite_times) check_json
    metrics_json;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names, flags = List.partition (fun a -> a.[0] <> '-') args in
  List.iter
    (fun f ->
      if f = "--json" then json_mode := true
      else begin
        Printf.eprintf "usage: %s [--json] [experiment]\n" Sys.argv.(0);
        exit 2
      end)
    flags;
  (* Every suite below builds its configs as [{ Config.default with ... }];
     validating the base record here fails the whole binary fast if a
     default ever goes nonsensical, and per-suite overrides are validated
     again by [Cluster.create]. *)
  Ava3.Config.validate Ava3.Config.default;
  Printf.printf "parallel sweep domains: %d (override with AVA3_DOMAINS)\n%!"
    (Sim.Pool.default_domains ());
  (match names with
  | [] ->
      List.iter
        (fun (name, run) ->
          Printf.printf "\n###### %s ######\n%!" name;
          timed name run)
        experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some run -> timed name run
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat ", " (List.map fst experiments));
              exit 2)
        names);
  if !json_mode then write_json "BENCH_micro.json"
