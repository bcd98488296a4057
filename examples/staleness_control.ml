(* Controlling snapshot staleness with the advancement rate (paper §8).

   "The staleness of data returned by queries can be effectively controlled
   by the frequency of version advancement."  This example sweeps the
   advancement period on a fixed workload and prints the staleness queries
   observe, then demonstrates the §8 on-demand trick: a user who wants fresh
   data triggers an advancement immediately before querying.

   Run with: dune exec examples/staleness_control.exe *)

module Cluster = Ava3.Cluster
module Update = Ava3.Update_exec

let run_for = 2000.0

let run_with_period period =
  let engine = Sim.Engine.create ~seed:55L ~trace:false () in
  let db =
    Baseline.Ava3_db.create ~engine ~advancement_period:period
      ~advancement_until:run_for ~nodes:3 ()
  in
  let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:60 ~theta:0.8 in
  for n = 0 to 2 do
    Baseline.Ava3_db.load db ~node:n
      (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
  done;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let spec =
    {
      Workload.Driver.default_spec with
      duration = run_for;
      update_rate = 0.2;
      query_rate = 0.2;
      ops_per_update = (1, 3);
    }
  in
  let report =
    Workload.Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks
      ~spec
  in
  (report, Ava3.Cluster.stats (Baseline.Ava3_db.cluster db))

let () =
  print_endline "staleness vs advancement period (fixed workload, 3 nodes)";
  Printf.printf "%10s  %12s  %10s  %10s  %12s\n" "period" "advancements"
    "mean stale" "max stale" "messages";
  List.iter
    (fun period ->
      let report, stats = run_with_period period in
      Printf.printf "%10.0f  %12d  %10.1f  %10.1f  %12d\n" period
        stats.Cluster.advancements
        (Workload.Histogram.mean report.Workload.Driver.staleness)
        (Workload.Histogram.max_value report.Workload.Driver.staleness)
        stats.Cluster.messages)
    [ 20.0; 50.0; 100.0; 250.0; 500.0 ];
  print_endline
    "\nfaster advancement => fresher snapshots, more protocol messages.\n";

  (* On-demand freshness: advance right before the query (§8). *)
  print_endline "on-demand freshness: advance immediately before querying";
  let engine = Sim.Engine.create ~seed:56L () in
  let db : int Cluster.t = Cluster.create ~engine ~nodes:3 () in
  Cluster.load db ~node:0 [ ("ticker", 0) ];
  Sim.Engine.spawn engine (fun () ->
      (* A write happens... *)
      (match
         Cluster.run_update db ~root:0
           ~ops:[ Update.Write { node = 0; key = "ticker"; value = 42 } ]
       with
      | Update.Committed _ -> ()
      | Update.(Aborted _ | In_doubt _ | Root_down _) -> assert false);
      Sim.Engine.sleep 100.0;
      (* ...a plain query still sees the old snapshot... *)
      let stale = Cluster.run_query db ~root:1 ~reads:[ (0, "ticker") ] in
      Printf.printf "  plain query:     snapshot v%d, ticker=%s\n"
        stale.Ava3.Query_exec.version
        (match stale.Ava3.Query_exec.values with
        | [ (_, _, Some v) ] -> string_of_int v
        | _ -> "-");
      (* ...but advancing first yields (almost) current data. *)
      (match Cluster.advance_and_wait db ~coordinator:1 with
      | `Completed _ -> ()
      | `Busy -> ());
      let fresh = Cluster.run_query db ~root:1 ~reads:[ (0, "ticker") ] in
      Printf.printf "  after advance:   snapshot v%d, ticker=%s (staleness %.1f)\n"
        fresh.Ava3.Query_exec.version
        (match fresh.Ava3.Query_exec.values with
        | [ (_, _, Some v) ] -> string_of_int v
        | _ -> "-")
        (Option.value fresh.Ava3.Query_exec.staleness ~default:nan));
  Sim.Engine.run engine
