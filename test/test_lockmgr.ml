(* Tests for the strict-2PL lock table: grants, queueing, upgrades,
   deadlock detection, and the prepare-time shared-lock release. *)

module Lt = Lockmgr.Lock_table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run a scenario of processes inside a fresh engine; returns after the
   engine drains. *)
let in_sim scenario =
  let e = Sim.Engine.create () in
  scenario e;
  Sim.Engine.run e;
  e

let test_shared_compatible () =
  let lt = Lt.create () in
  let granted = ref 0 in
  ignore
    (in_sim (fun e ->
         for owner = 1 to 3 do
           Sim.Engine.spawn e (fun () ->
               match Lt.acquire lt ~owner ~key:"x" Lt.Shared with
               | `Granted -> incr granted
               | `Deadlock -> ())
         done));
  check_int "all shared granted" 3 !granted;
  check_int "no waits" 0 (Lt.waits lt)

let test_exclusive_blocks () =
  let lt = Lt.create () in
  let order = ref [] in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive);
             order := `A_got :: !order;
             Sim.Engine.sleep 10.0;
             Lt.release_all lt ~owner:1;
             order := `A_released :: !order);
         Sim.Engine.schedule e ~delay:1.0 (fun () ->
             ignore (Lt.acquire lt ~owner:2 ~key:"x" Lt.Exclusive);
             order := `B_got :: !order)));
  Alcotest.(check bool)
    "B granted only after A released" true
    (List.rev !order = [ `A_got; `A_released; `B_got ]);
  check_int "one wait" 1 (Lt.waits lt)

let test_reacquire_held () =
  let lt = Lt.create () in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive);
             (* Both re-requests are immediate. *)
             (match Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive with
             | `Granted -> ()
             | `Deadlock -> Alcotest.fail "self re-acquire deadlocked");
             match Lt.acquire lt ~owner:1 ~key:"x" Lt.Shared with
             | `Granted -> ()
             | `Deadlock -> Alcotest.fail "S under X deadlocked")));
  check_int "no waits" 0 (Lt.waits lt)

let test_upgrade_sole_holder () =
  let lt = Lt.create () in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Shared);
             match Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive with
             | `Granted ->
                 check_bool "now exclusive" true
                   (Lt.holds lt ~owner:1 ~key:"x" = Some Lt.Exclusive)
             | `Deadlock -> Alcotest.fail "sole-holder upgrade deadlocked")));
  check_int "immediate upgrade" 0 (Lt.waits lt)

let test_upgrade_waits_for_other_reader () =
  let lt = Lt.create () in
  let upgraded_at = ref 0.0 in
  let e =
    in_sim (fun e ->
        Sim.Engine.spawn e (fun () ->
            ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Shared);
            Sim.Engine.sleep 10.0;
            Lt.release_all lt ~owner:1);
        Sim.Engine.schedule e ~delay:1.0 (fun () ->
            ignore (Lt.acquire lt ~owner:2 ~key:"x" Lt.Shared);
            match Lt.acquire lt ~owner:2 ~key:"x" Lt.Exclusive with
            | `Granted -> upgraded_at := Sim.Engine.now (Sim.Engine.current ())
            | `Deadlock -> Alcotest.fail "upgrade deadlocked"))
  in
  ignore e;
  Alcotest.(check (float 1e-9)) "upgrade granted at release" 10.0 !upgraded_at

let test_deadlock_detected () =
  let lt = Lt.create () in
  let outcomes = ref [] in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive);
             Sim.Engine.sleep 5.0;
             let r = Lt.acquire lt ~owner:1 ~key:"y" Lt.Exclusive in
             outcomes := (1, r) :: !outcomes;
             Lt.release_all lt ~owner:1);
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:2 ~key:"y" Lt.Exclusive);
             Sim.Engine.sleep 5.0;
             let r = Lt.acquire lt ~owner:2 ~key:"x" Lt.Exclusive in
             outcomes := (2, r) :: !outcomes;
             Lt.release_all lt ~owner:2)));
  check_int "both finished" 2 (List.length !outcomes);
  check_int "exactly one deadlock victim" 1 (Lt.deadlocks lt);
  let victims = List.filter (fun (_, r) -> r = `Deadlock) !outcomes in
  check_int "one victim reported" 1 (List.length victims)

let test_upgrade_deadlock () =
  (* Two readers both upgrading: a classic conversion deadlock. *)
  let lt = Lt.create () in
  let deadlocks = ref 0 and grants = ref 0 in
  ignore
    (in_sim (fun e ->
         for owner = 1 to 2 do
           Sim.Engine.spawn e (fun () ->
               ignore (Lt.acquire lt ~owner ~key:"x" Lt.Shared);
               Sim.Engine.sleep 2.0;
               (match Lt.acquire lt ~owner ~key:"x" Lt.Exclusive with
               | `Granted -> incr grants
               | `Deadlock -> incr deadlocks);
               Lt.release_all lt ~owner)
         done));
  check_int "one aborted" 1 !deadlocks;
  check_int "one upgraded" 1 !grants

let test_release_shared_only () =
  let lt = Lt.create () in
  let reader2_done = ref false in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"r" Lt.Shared);
             ignore (Lt.acquire lt ~owner:1 ~key:"w" Lt.Exclusive);
             Sim.Engine.sleep 5.0;
             (* Prepare time: reads unlock, writes stay. *)
             Lt.release_shared lt ~owner:1;
             check_bool "S gone" true (Lt.holds lt ~owner:1 ~key:"r" = None);
             check_bool "X kept" true
               (Lt.holds lt ~owner:1 ~key:"w" = Some Lt.Exclusive);
             Sim.Engine.sleep 20.0;
             Lt.release_all lt ~owner:1);
         Sim.Engine.schedule e ~delay:6.0 (fun () ->
             (* After release_shared, another writer can take "r". *)
             ignore (Lt.acquire lt ~owner:2 ~key:"r" Lt.Exclusive);
             reader2_done := true)));
  check_bool "writer got released key" true !reader2_done

let test_fifo_no_starvation () =
  let lt = Lt.create () in
  let order = ref [] in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive);
             Sim.Engine.sleep 10.0;
             Lt.release_all lt ~owner:1);
         (* A writer queues first, then a reader: the reader must not jump
            the queue even though it is compatible with the holder. *)
         Sim.Engine.schedule e ~delay:1.0 (fun () ->
             ignore (Lt.acquire lt ~owner:2 ~key:"x" Lt.Exclusive);
             order := 2 :: !order;
             Sim.Engine.sleep 5.0;
             Lt.release_all lt ~owner:2);
         Sim.Engine.schedule e ~delay:2.0 (fun () ->
             ignore (Lt.acquire lt ~owner:3 ~key:"x" Lt.Shared);
             order := 3 :: !order;
             Lt.release_all lt ~owner:3)));
  Alcotest.(check (list int)) "fifo order" [ 2; 3 ] (List.rev !order)

let test_wait_time_accounting () =
  let lt = Lt.create () in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive);
             Sim.Engine.sleep 7.0;
             Lt.release_all lt ~owner:1);
         Sim.Engine.schedule e ~delay:2.0 (fun () ->
             ignore (Lt.acquire lt ~owner:2 ~key:"x" Lt.Exclusive))));
  Alcotest.(check (float 1e-9)) "waited 5" 5.0 (Lt.total_wait_time lt)


let test_cross_table_deadlock () =
  (* T1 holds a lock on table A and waits on table B; T2 holds on B and
     waits on A.  Only group-wide detection can see this cycle — exactly
     the distributed deadlock a transaction spanning two nodes creates. *)
  let group = Lt.new_group () in
  let ta = Lt.create ~group () and tb = Lt.create ~group () in
  let outcomes = ref [] in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire ta ~owner:1 ~key:"x" Lt.Exclusive);
             Sim.Engine.sleep 5.0;
             let r = Lt.acquire tb ~owner:1 ~key:"y" Lt.Exclusive in
             outcomes := (1, r) :: !outcomes;
             Lt.release_all ta ~owner:1;
             Lt.release_all tb ~owner:1);
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire tb ~owner:2 ~key:"y" Lt.Exclusive);
             Sim.Engine.sleep 5.0;
             let r = Lt.acquire ta ~owner:2 ~key:"x" Lt.Exclusive in
             outcomes := (2, r) :: !outcomes;
             Lt.release_all ta ~owner:2;
             Lt.release_all tb ~owner:2)));
  check_int "both finished" 2 (List.length !outcomes);
  check_int "cycle detected across tables" 1 (Lt.deadlocks ta + Lt.deadlocks tb)

let test_ungrouped_tables_blind () =
  (* Without a shared group the same cycle is invisible: both requests
     block (no false positives, no detection) — documents why the cluster
     uses a group. *)
  let ta = Lt.create () and tb = Lt.create () in
  let granted = ref 0 in
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e (fun () ->
      ignore (Lt.acquire ta ~owner:1 ~key:"x" Lt.Exclusive);
      Sim.Engine.sleep 5.0;
      (match Lt.acquire tb ~owner:1 ~key:"y" Lt.Exclusive with
      | `Granted -> incr granted
      | `Deadlock -> ()));
  Sim.Engine.spawn e (fun () ->
      ignore (Lt.acquire tb ~owner:2 ~key:"y" Lt.Exclusive);
      Sim.Engine.sleep 5.0;
      match Lt.acquire ta ~owner:2 ~key:"x" Lt.Exclusive with
      | `Granted -> incr granted
      | `Deadlock -> ());
  Sim.Engine.run e;
  check_int "nobody detected anything" 0 (Lt.deadlocks ta + Lt.deadlocks tb);
  check_int "both still blocked" 2 (Sim.Engine.suspended_count e)

let test_waiting_requests_count () =
  let lt = Lt.create () in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire lt ~owner:1 ~key:"x" Lt.Exclusive);
             Sim.Engine.sleep 10.0;
             check_int "two queued" 2 (Lt.waiting_requests lt);
             Lt.release_all lt ~owner:1);
         for o = 2 to 3 do
           Sim.Engine.schedule e ~delay:1.0 (fun () ->
               ignore (Lt.acquire lt ~owner:o ~key:"x" Lt.Exclusive);
               Lt.release_all lt ~owner:o)
         done));
  check_int "queue drained" 0 (Lt.waiting_requests lt)

(* Owner 1 holds k1 on T1 and waits on k2 on T2, which owner 2 holds; then
   owner 2 requests k1 on T1.  With T2 alive that is a real deadlock.  Once
   T2's node has crashed and the table is retired, owner 1's stranded
   request must not close a cycle: owner 2 waits, and is granted when
   owner 1 releases on T1. *)
let retired_table_scenario ~retire =
  let group = Lt.new_group () in
  let t1 = Lt.create ~group () and t2 = Lt.create ~group () in
  let outcome = ref None in
  ignore
    (in_sim (fun e ->
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire t1 ~owner:1 ~key:"k1" Lt.Exclusive);
             Sim.Engine.sleep 1.0;
             ignore (Lt.acquire t2 ~owner:1 ~key:"k2" Lt.Exclusive));
         Sim.Engine.spawn e (fun () ->
             ignore (Lt.acquire t2 ~owner:2 ~key:"k2" Lt.Exclusive);
             Sim.Engine.sleep 2.0;
             if retire then begin
               Lt.retire t2;
               check_int "retired table reports no waiters" 0
                 (Lt.waiting_requests t2)
             end;
             let r = Lt.acquire t1 ~owner:2 ~key:"k1" Lt.Exclusive in
             outcome := Some (r, Sim.Engine.now (Sim.Engine.current ())));
         Sim.Engine.schedule e ~delay:10.0 (fun () ->
             Lt.release_all t1 ~owner:1)));
  (!outcome, Lt.deadlocks t1 + Lt.deadlocks t2)

let test_retired_table_leaves_detection () =
  (match retired_table_scenario ~retire:false with
  | Some (`Deadlock, at), 1 ->
      Alcotest.(check (float 1e-9)) "live table: denied at once" 2.0 at
  | _ -> Alcotest.fail "the cycle through a live table must be denied");
  match retired_table_scenario ~retire:true with
  | Some (`Granted, at), 0 ->
      Alcotest.(check (float 1e-9)) "granted at owner 1's release" 10.0 at
  | Some (`Deadlock, _), _ -> Alcotest.fail "false deadlock via retired table"
  | _ -> Alcotest.fail "owner 2 was never granted"

(* Differential oracle for deadlock verdicts.  A schedule runs random
   requests and releases over three grouped tables.  Right before each
   request the test builds the wait-for graph itself from [iter_locked]
   (holders, plus live waiters in queue order, plus the new request where
   the table will queue it) and predicts the verdict: a request that has
   to wait is denied exactly when that graph has a cycle through it. *)

type oracle_op = Acquire of Lt.mode | Release_all | Release_one | Release_shared

let conflict m m' = m = Lt.Exclusive || m' = Lt.Exclusive

(* Each owner's first live waiter on a key waits for the conflicting
   holders and the conflicting live waiters queued ahead of it. *)
let key_edges holders waiters =
  let rec go seen ahead acc = function
    | [] -> acc
    | (o, m) :: rest ->
        let on =
          List.filter_map (fun (o', m') ->
              if o' <> o && conflict m m' then Some (o, o') else None)
        in
        let acc = if List.mem o seen then acc else on holders @ on ahead @ acc in
        go (o :: seen) (ahead @ [ (o, m) ]) acc rest
  in
  go [] [] [] waiters

let graph_with_request tables ~table ~owner ~key mode =
  let edges = ref [] and seen = ref false in
  let place holders waiters =
    let upgrade =
      mode = Lt.Exclusive
      && List.mem (owner, Lt.Shared) holders
      && not (List.mem (owner, Lt.Exclusive) holders)
    in
    if upgrade then (owner, mode) :: waiters else waiters @ [ (owner, mode) ]
  in
  Array.iteri
    (fun i lt ->
      Lt.iter_locked lt (fun k holders waiters ->
          let waiters =
            if i = table && k = key then begin
              seen := true;
              place holders waiters
            end
            else waiters
          in
          edges := key_edges holders waiters @ !edges))
    tables;
  if not !seen then edges := key_edges [] (place [] []) @ !edges;
  !edges

let cycle_through edges start =
  let succ o = List.filter_map (fun (a, b) -> if a = o then Some b else None) edges in
  let rec reach seen = function
    | [] -> seen
    | o :: rest ->
        if List.mem o seen then reach seen rest else reach (o :: seen) (succ o @ rest)
  in
  List.mem start (reach [] (succ start))

(* Returns (verdicts that disagree with the graph, deadlocks, waited grants). *)
let run_oracle_schedule script =
  let group = Lt.new_group () in
  let tables = Array.init 3 (fun _ -> Lt.create ~group ()) in
  let e = Sim.Engine.create () in
  let wrong = ref 0 and deadlocks = ref 0 and waited_grants = ref 0 in
  List.iteri
    (fun i (owner, table, key_i, op) ->
      let lt = tables.(table) and key = Printf.sprintf "k%d" key_i in
      Sim.Engine.schedule e ~delay:(float_of_int i *. 0.5) (fun () ->
          match op with
          | Acquire mode -> (
              let expected =
                cycle_through (graph_with_request tables ~table ~owner ~key mode) owner
              in
              let before = Sim.Engine.events_executed e in
              match Lt.acquire lt ~owner ~key mode with
              | `Deadlock ->
                  incr deadlocks;
                  if not expected then incr wrong;
                  Array.iter (fun lt -> Lt.release_all lt ~owner) tables
              | `Granted ->
                  if Sim.Engine.events_executed e > before then begin
                    incr waited_grants;
                    if expected then incr wrong
                  end)
          | Release_all -> Lt.release_all lt ~owner
          | Release_one -> Lt.release_one lt ~owner ~key
          | Release_shared -> Lt.release_shared lt ~owner))
    script;
  Sim.Engine.run e;
  (!wrong, !deadlocks, !waited_grants)

let oracle_script =
  QCheck.(
    list_of_size (Gen.int_range 10 60)
      (quad (int_range 1 6) (int_range 0 2) (int_range 1 3)
         (make
            ~print:(function
              | Acquire Lt.Shared -> "S"
              | Acquire Lt.Exclusive -> "X"
              | Release_all -> "release_all"
              | Release_one -> "release_one"
              | Release_shared -> "release_shared")
            Gen.(
              frequency
                [
                  (3, return (Acquire Lt.Shared));
                  (4, return (Acquire Lt.Exclusive));
                  (1, return Release_all);
                  (1, return Release_one);
                  (1, return Release_shared);
                ]))))

let prop_deadlock_verdicts_match_graph =
  QCheck.Test.make ~name:"deadlock verdicts match the wait-for graph"
    ~count:300 oracle_script (fun script ->
      let wrong, _, _ = run_oracle_schedule script in
      wrong = 0)

(* The oracle is only as good as the verdicts it sees: over a fixed set of
   schedules both outcomes of a wait must occur. *)
let test_oracle_sees_both_verdicts () =
  let rand = Random.State.make [| 15 |] in
  let wrong = ref 0 and deadlocks = ref 0 and grants = ref 0 in
  List.iter
    (fun script ->
      let w, d, g = run_oracle_schedule script in
      wrong := !wrong + w;
      deadlocks := !deadlocks + d;
      grants := !grants + g)
    (QCheck.Gen.generate ~rand ~n:100 (QCheck.gen oracle_script));
  check_int "verdicts disagreeing with the graph" 0 !wrong;
  check_bool "some waits denied" true (!deadlocks > 0);
  check_bool "some waits granted" true (!grants > 0)

(* Property: random lock/release scripts never hang (every process ends)
   and grants never produce an incompatible holder set. *)
let prop_no_incompatible_holders =
  QCheck.Test.make ~name:"random scripts keep holder sets compatible"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_bound 40)
        (triple (int_range 1 6) (int_range 1 4) bool))
    (fun script ->
      let lt = Lt.create () in
      let e = Sim.Engine.create () in
      let violation = ref false in
      List.iteri
        (fun i (owner, key_i, exclusive) ->
          let key = Printf.sprintf "k%d" key_i in
          Sim.Engine.schedule e ~delay:(float_of_int i) (fun () ->
              let mode = if exclusive then Lt.Exclusive else Lt.Shared in
              (match Lt.acquire lt ~owner ~key mode with
              | `Granted ->
                  (* With an exclusive holder there must be exactly one
                     owner on the key. *)
                  if
                    Lt.holds lt ~owner ~key = Some Lt.Exclusive
                    && List.exists
                         (fun o -> o <> owner && Lt.holds lt ~owner:o ~key <> None)
                         [ 1; 2; 3; 4; 5; 6 ]
                  then violation := true
              | `Deadlock -> Lt.release_all lt ~owner);
              Sim.Engine.sleep 2.5;
              Lt.release_all lt ~owner))
        script;
      Sim.Engine.run e;
      not !violation)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "lockmgr"
    [
      ( "grants",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
          Alcotest.test_case "reacquire held" `Quick test_reacquire_held;
          Alcotest.test_case "fifo no starvation" `Quick test_fifo_no_starvation;
        ] );
      ( "upgrades",
        [
          Alcotest.test_case "sole holder immediate" `Quick
            test_upgrade_sole_holder;
          Alcotest.test_case "waits for other reader" `Quick
            test_upgrade_waits_for_other_reader;
          Alcotest.test_case "conversion deadlock" `Quick test_upgrade_deadlock;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "cycle detected" `Quick test_deadlock_detected;
          Alcotest.test_case "cross-table cycle" `Quick test_cross_table_deadlock;
          Alcotest.test_case "ungrouped tables are blind" `Quick
            test_ungrouped_tables_blind;
          Alcotest.test_case "waiting requests count" `Quick
            test_waiting_requests_count;
          Alcotest.test_case "retired table leaves detection" `Quick
            test_retired_table_leaves_detection;
          Alcotest.test_case "oracle sees both verdicts" `Quick
            test_oracle_sees_both_verdicts;
        ] );
      ( "release",
        [
          Alcotest.test_case "release shared only" `Quick
            test_release_shared_only;
          Alcotest.test_case "wait time accounting" `Quick
            test_wait_time_accounting;
        ] );
      ( "properties",
        qc [ prop_no_incompatible_holders; prop_deadlock_verdicts_match_graph ]
      );
    ]
