(* Multi-warehouse order processing — the R*-style tree-transaction API.

   An order arrives at a regional front-end (the transaction root), which
   concurrently reserves stock at two warehouses and appends to the regional
   order log: one tree transaction, children running in parallel, committed
   atomically by the versioned two-phase commit.  Meanwhile an analyst scans
   whole warehouses with lock-free ordered range queries over a consistent
   snapshot.

   Run with: dune exec examples/warehouse_orders.exe *)

module Cluster = Ava3.Cluster
module Tree = Ava3.Tree_txn

let front_end = 0
let warehouse_a = 1
let warehouse_b = 2
let skus_per_warehouse = 25
let run_for = 2000.0

let sku w i = Printf.sprintf "w%d-sku%03d" w i

let () =
  let engine = Sim.Engine.create ~seed:321L ~trace:false () in
  let config =
    { Ava3.Config.default with read_service_time = 0.1; write_service_time = 0.2 }
  in
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.5) ~nodes:3 ()
  in
  (* Stock levels at the warehouses, an order counter at the front-end. *)
  List.iter
    (fun w ->
      Cluster.load db ~node:w
        (List.init skus_per_warehouse (fun i -> (sku w i, 100))))
    [ warehouse_a; warehouse_b ];
  Cluster.load db ~node:front_end [ ("orders", 0) ];
  Cluster.start_periodic_advancement db ~coordinator:front_end ~period:150.0
    ~until:run_for;

  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let placed = ref 0 and rejected = ref 0 in
  let order_latency = Workload.Histogram.create () in

  (* Order stream: each order reserves one SKU at each warehouse,
     concurrently, and bumps the order counter at the root. *)
  let rec schedule_orders at =
    if at < run_for then begin
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let pick w = sku w (Sim.Rng.int rng skus_per_warehouse) in
          let reserve w =
            {
              Tree.at = w;
              work =
                [
                  Tree.Read_modify_write
                    (pick w, fun v -> Option.value v ~default:0 - 1);
                ];
              children = [];
            }
          in
          let plan =
            {
              Tree.at = front_end;
              work =
                [
                  Tree.Read_modify_write
                    ("orders", fun v -> Option.value v ~default:0 + 1);
                ];
              children = [ reserve warehouse_a; reserve warehouse_b ];
            }
          in
          let t0 = Sim.Engine.now engine in
          match Cluster.run_tree_update db ~plan with
          | Tree.Committed _ ->
              incr placed;
              Workload.Histogram.add order_latency (Sim.Engine.now engine -. t0)
          | Tree.(Aborted _ | In_doubt _ | Root_down _) -> incr rejected);
      schedule_orders (at +. Sim.Rng.exponential rng ~mean:4.0)
    end
  in
  schedule_orders 1.0;

  (* Analyst: periodic full-warehouse stock scans, lock-free. *)
  let scans = ref 0 and min_stock_seen = ref max_int in
  let rec schedule_scans at =
    if at < run_for then begin
      Sim.Engine.schedule engine ~delay:at (fun () ->
          let w = if Sim.Rng.bool rng then warehouse_a else warehouse_b in
          let scan =
            Cluster.run_scan db ~root:front_end
              ~ranges:[ (w, sku w 0, sku w (skus_per_warehouse - 1)) ]
          in
          incr scans;
          List.iter
            (fun (_, _, v) ->
              Option.iter (fun v -> min_stock_seen := min !min_stock_seen v) v)
            scan.Ava3.Query_exec.values);
      schedule_scans (at +. 100.0)
    end
  in
  schedule_scans 50.0;

  Sim.Engine.run engine;

  let stats = Cluster.stats db in
  Printf.printf "warehouse orders (tree transactions, %d SKUs per warehouse)\n"
    skus_per_warehouse;
  Printf.printf "  orders placed: %d (rejected: %d)\n" !placed !rejected;
  Printf.printf "  order latency: %s\n" (Workload.Histogram.summary order_latency);
  Printf.printf "  stock scans: %d (lowest stock observed %d)\n" !scans
    !min_stock_seen;
  Printf.printf "  commit-time version repairs: %d; data-access repairs: %d\n"
    stats.Cluster.mtf_commit_time stats.Cluster.mtf_data_access;
  Printf.printf "  max versions of any item: %d\n" stats.Cluster.max_versions_ever;
  (* Audit: every order removed exactly one unit from each warehouse. *)
  Sim.Engine.spawn engine (fun () ->
      let audit w =
        let scan =
          Cluster.run_scan db ~root:front_end
            ~ranges:[ (w, sku w 0, sku w (skus_per_warehouse - 1)) ]
        in
        List.fold_left
          (fun acc (_, _, v) -> acc + Option.value v ~default:0)
          0 scan.Ava3.Query_exec.values
      in
      ignore (Cluster.advance_and_wait db ~coordinator:front_end);
      let total = audit warehouse_a + audit warehouse_b in
      let expected = (2 * skus_per_warehouse * 100) - (2 * !placed) in
      Printf.printf "  audit: remaining stock %d, expected %d -> %s\n" total
        expected
        (if total = expected then "consistent" else "INCONSISTENT"));
  Sim.Engine.run engine;
  match Cluster.check_invariants db with
  | [] -> print_endline "  invariants: OK"
  | vs -> List.iter print_endline vs
