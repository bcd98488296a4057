(* Telephone call records — the paper's motivating AT&T workload (§1.1).

   An operations-support stream continuously records completed calls
   (update transactions touching per-customer usage counters), while
   customer-care queries read whole account histories (multi-item read-only
   queries).  Manual versioning would block customer access during the
   periodic "flush"; AVA3 runs version advancement every few minutes of
   virtual time with zero blocking.

   The example reports: call-recording throughput, customer-query latency,
   the snapshot staleness customers observe, and the fact that no query ever
   waited for a lock.

   Run with: dune exec examples/call_records.exe *)

module Cluster = Ava3.Cluster
module Update = Ava3.Update_exec

let nodes = 4 (* regional switches *)
let customers_per_node = 50
let minutes = 60.0 (* one virtual "minute" *)
let run_for = 120.0 *. minutes

let customer_key c = Printf.sprintf "cust-%04d" c

let () =
  let engine = Sim.Engine.create ~seed:77L ~trace:false () in
  let config =
    { Ava3.Config.default with read_service_time = 0.2; write_service_time = 0.4 }
  in
  let db : int Cluster.t =
    Cluster.create ~engine ~config
      ~latency:(Net.Latency.Exponential { mean = 2.0; floor = 0.5 })
      ~nodes ()
  in
  (* Every customer starts with zero usage. *)
  for n = 0 to nodes - 1 do
    Cluster.load db ~node:n
      (List.init customers_per_node (fun c ->
           (customer_key ((n * customers_per_node) + c), 0)))
  done;
  (* Version advancement every "five minutes". *)
  Cluster.start_periodic_advancement db ~coordinator:0 ~period:(5.0 *. minutes)
    ~until:run_for;

  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let calls_recorded = ref 0 and calls_failed = ref 0 in
  let query_latency = Workload.Histogram.create () in
  let staleness = Workload.Histogram.create () in

  (* Call-record stream: ~1 call per time unit, each charging one customer
     (and, for long-distance calls, settling with the destination region). *)
  let rec schedule_calls at =
    if at < run_for then begin
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let origin = Sim.Rng.int rng nodes in
          let customer =
            (origin * customers_per_node) + Sim.Rng.int rng customers_per_node
          in
          let duration = 1 + Sim.Rng.int rng 30 in
          let charge v = Option.value v ~default:0 + duration in
          let ops =
            let base =
              [
                Update.Read_modify_write
                  { node = origin; key = customer_key customer; f = charge };
              ]
            in
            if Sim.Rng.chance rng 0.3 then
              (* Long-distance: also update the destination region's
                 settlement record. *)
              let dest = Sim.Rng.int rng nodes in
              base
              @ [
                  Update.Read_modify_write
                    {
                      node = dest;
                      key =
                        customer_key
                          ((dest * customers_per_node)
                          + Sim.Rng.int rng customers_per_node);
                      f = charge;
                    };
                ]
            else base
          in
          match
            Ava3.Txn_core.retry (fun () ->
                Cluster.run_update db ~root:origin ~ops)
          with
          | Update.Committed _, _ -> incr calls_recorded
          | _ -> incr calls_failed);
      schedule_calls (at +. Sim.Rng.exponential rng ~mean:1.0)
    end
  in
  schedule_calls 1.0;

  (* Customer-care queries: read a customer's records plus a few related
     accounts, every ~10 time units. *)
  let rec schedule_queries at =
    if at < run_for then begin
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let agent_site = Sim.Rng.int rng nodes in
          let reads =
            List.init 5 (fun _ ->
                let n = Sim.Rng.int rng nodes in
                ( n,
                  customer_key
                    ((n * customers_per_node) + Sim.Rng.int rng customers_per_node)
                ))
          in
          let q = Cluster.run_query db ~root:agent_site ~reads in
          Workload.Histogram.add query_latency
            (q.Ava3.Query_exec.finished_at -. q.Ava3.Query_exec.started_at);
          Option.iter
            (Workload.Histogram.add staleness)
            (q.Ava3.Query_exec.staleness));
      schedule_queries (at +. Sim.Rng.exponential rng ~mean:10.0)
    end
  in
  schedule_queries 2.0;

  (* Billing sweeps: each region's whole customer block scanned as one
     ordered, lock-free range over a consistent snapshot. *)
  let bill_scans = ref 0 and bill_rows = ref 0 in
  let rec schedule_bills at =
    if at < run_for then begin
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let region = Sim.Rng.int rng nodes in
          let lo = customer_key (region * customers_per_node) in
          let hi = customer_key (((region + 1) * customers_per_node) - 1) in
          let scan = Cluster.run_scan db ~root:region ~ranges:[ (region, lo, hi) ] in
          incr bill_scans;
          bill_rows := !bill_rows + List.length scan.Ava3.Query_exec.values);
      schedule_bills (at +. (15.0 *. minutes))
    end
  in
  schedule_bills (10.0 *. minutes);

  Sim.Engine.run engine;

  let stats = Cluster.stats db in
  Printf.printf "call records (AT&T-style workload, %d regions, %.0f minutes)\n"
    nodes (run_for /. minutes);
  Printf.printf "  calls recorded:      %d (failed: %d)\n" !calls_recorded
    !calls_failed;
  Printf.printf "  version advancements: %d (one per ~5 min)\n"
    stats.Cluster.advancements;
  Printf.printf "  customer query latency: %s\n"
    (Workload.Histogram.summary query_latency);
  Printf.printf "  snapshot staleness (minutes): mean %.2f, max %.2f\n"
    (Workload.Histogram.mean staleness /. minutes)
    (Workload.Histogram.max_value staleness /. minutes);
  Printf.printf "  billing sweeps: %d full-region scans, %d rows, zero locks\n"
    !bill_scans !bill_rows;
  Printf.printf "  queries blocked by updates: 0 by construction — queries take no locks\n";
  Printf.printf "  max versions of any record: %d (bound: 3)\n"
    stats.Cluster.max_versions_ever;
  match Cluster.check_invariants db with
  | [] -> print_endline "  invariants: OK"
  | vs -> List.iter print_endline vs
