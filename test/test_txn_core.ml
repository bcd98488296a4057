(* Tests for the shared Txn_core / Query_core runtime behaviours that the
   executor drivers rely on: the Root_down rejection sentinel (flat and
   tree), the crash-path counter release in scans, the tree executor's
   orphaned-dispatch guard, exactly-once commits when the commit round
   fails after the version decision (flat, tree and session), and the
   garbage catch-up on a commit-time raise of the update version. *)

module Cluster = Ava3.Cluster
module Node_state = Ava3.Node_state
module Update = Ava3.Update_exec
module Tree = Ava3.Tree_txn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_cluster ?config ?(nodes = 3) ?(seed = 11L) body =
  let engine = Sim.Engine.create ~seed () in
  let db : int Cluster.t = Cluster.create ~engine ?config ~nodes () in
  Sim.Engine.spawn engine (fun () -> body db);
  Sim.Engine.run engine;
  db

(* {1 Root_down sentinel} *)

(* Submitting to a dead root is a rejection, not an abort: no transaction
   id is allocated, nothing runs anywhere, and the metrics count it
   separately from aborts. *)
let test_root_down_flat () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("a", 0) ];
        Cluster.crash db ~node:1;
        (match
           Cluster.run_update db ~root:1
             ~ops:[ Update.Write { node = 0; key = "a"; value = 1 } ]
         with
        | Update.Root_down { root } -> check_int "rejecting root" 1 root
        | Update.Committed _ | Update.Aborted _ | Update.In_doubt _ ->
            Alcotest.fail "expected Root_down");
        (* A live root still works after the rejection. *)
        match
          Cluster.run_update db ~root:0
            ~ops:[ Update.Write { node = 0; key = "a"; value = 2 } ]
        with
        | Update.Committed _ -> ()
        | Update.(Aborted _ | In_doubt _ | Root_down _) ->
            Alcotest.fail "expected commit at live root")
  in
  let m = Cluster.metrics db in
  check_int "one rejection" 1 (Sim.Metrics.total_root_down m);
  check_int "not counted as an abort" 0 (Sim.Metrics.total_aborts m);
  check_int "the live-root commit" 1 (Sim.Metrics.total_commits m);
  let at1 = List.nth (Cluster.metrics_snapshot db) 1 in
  check_int "attributed to the dead root" 1 at1.Sim.Metrics.root_down_rejections

let test_root_down_tree () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:1 [ ("b", 0) ];
        Cluster.crash db ~node:0;
        let plan =
          {
            Tree.at = 0;
            work = [];
            children =
              [ { Tree.at = 1; work = [ Tree.Write ("b", 9) ]; children = [] } ];
          }
        in
        match Cluster.run_tree_update db ~plan with
        | Tree.Root_down { root } -> check_int "rejecting root" 0 root
        | Tree.Committed _ | Tree.Aborted _ | Tree.In_doubt _ ->
            Alcotest.fail "expected Root_down");
  in
  check_int "one rejection" 1 (Sim.Metrics.total_root_down (Cluster.metrics db));
  check_bool "child untouched" true
    (Node_state.active_update_transactions (Cluster.node db 1) = 0)

(* {1 Crash-path counter release in scans} *)

(* A scan whose remote leg dies must still release every query counter it
   registered (root last), or the pinned version could never be garbage
   collected and Phase 2 of advancement would block forever. *)
let test_scan_crash_releases_counters () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("a1", 1) ];
        Cluster.load db ~node:1 [ ("b1", 2) ];
        Cluster.crash db ~node:1;
        let root = Cluster.node db 0 in
        let pinned = Node_state.q root in
        (match
           Cluster.run_scan db ~root:0
             ~ranges:[ (0, "a", "az"); (1, "b", "bz") ]
         with
        | _ -> Alcotest.fail "expected the scan to fail"
        | exception Net.Network.Node_down n -> check_int "node 1 died" 1 n);
        check_int "root counter released on the crash path" 0
          (Node_state.query_count root ~version:pinned);
        (* Advancement is not blocked by the dead scan's snapshot. *)
        Cluster.recover db ~node:1;
        ignore (Cluster.run_update db ~root:0
                  ~ops:[ Update.Write { node = 0; key = "a1"; value = 5 } ]);
        match Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed _ -> ()
        | `Busy -> Alcotest.fail "advancement busy")
  in
  check_int "no queries recorded for the failed scan" 0
    (Sim.Metrics.total_queries (Cluster.metrics db))

(* {1 Orphaned dispatch in the tree executor} *)

(* The root's RPC to a slow child times out, aborting the transaction
   while the dispatch is still in flight.  When it finally lands, the
   registry's state check must roll the subtransaction back on the spot —
   otherwise its update counter leaks and every future advancement's
   Phase 1 blocks on it. *)
let test_tree_orphaned_dispatch_rolled_back () =
  let config = { Ava3.Config.default with rpc_timeout = 6.0 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("a", 0) ];
        Cluster.load db ~node:1 [ ("b", 0) ];
        Cluster.load db ~node:2 [ ("c", 0) ];
        (* The dispatch to node 2 is slower than the RPC timeout. *)
        Net.Network.set_link_extra (Cluster.network db) ~src:0 ~dst:2 10.0;
        let plan =
          {
            Tree.at = 0;
            work = [ Tree.Write ("a", 1) ];
            children =
              [
                { Tree.at = 1; work = [ Tree.Write ("b", 1) ]; children = [] };
                { Tree.at = 2; work = [ Tree.Write ("c", 1) ]; children = [] };
              ];
          }
        in
        (match Cluster.run_tree_update db ~plan with
        | Tree.Aborted { reason = `Rpc_timeout n; _ } ->
            check_int "timed out on the slow child" 2 n
        | Tree.Aborted _ -> Alcotest.fail "expected an rpc-timeout abort"
        | Tree.Committed _ | Tree.In_doubt _ | Tree.Root_down _ ->
            Alcotest.fail "expected an abort");
        (* Let the orphaned dispatch land at node 2 and clean up. *)
        Sim.Engine.sleep 20.0;
        for n = 0 to 2 do
          check_int
            (Printf.sprintf "node %d update counter drained" n)
            0
            (Node_state.active_update_transactions (Cluster.node db n))
        done;
        (* Phase 1 of advancement waits on update counters: it must not
           block on the orphan's leaked registration. *)
        ignore (Cluster.run_update db ~root:0
                  ~ops:[ Update.Write { node = 0; key = "a"; value = 2 } ]);
        match Cluster.advance_and_wait db ~coordinator:1 with
        | `Completed _ -> ()
        | `Busy -> Alcotest.fail "advancement busy")
  in
  let m = Cluster.metrics db in
  check_int "exactly one abort" 1 (Sim.Metrics.total_aborts m);
  check_int "one rpc timeout recorded" 1 (Sim.Metrics.total_rpc_timeouts m);
  check_bool "nothing committed in version 1 at node 2" true
    (Vstore.Store.read_le (Node_state.store (Cluster.node db 2)) "c" 1 <> Some 1)

(* {1 Garbage catch-up on a commit-time version raise} *)

(* Node 1 collects version 0 at the end of round 2, then crashes before
   anything forces its log: under group commit the Collect record is lost,
   and the node recovers at u=2 q=1 g=-1 with "x" in versions 0 and 1.
   After a commit in version 2, node 0 alone enters round 3 (the
   advance-u to node 1 is cut), and a transaction spanning both nodes
   decides V(T)=3.  Its commit-time moveToFuture raises node 1's update
   version to 3, which must first collect version 0 — the Phase-1
   inference rule — or "x" would hold four versions. *)
let test_commit_raise_catches_up_gc () =
  let config =
    {
      Ava3.Config.default with
      disk_force_latency = 1.0;
      rpc_timeout = 20.0;
      advancement_retry = 500.0;
    }
  in
  let engine = Sim.Engine.create ~seed:5L () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes:2 ()
  in
  Cluster.load db ~node:1 [ ("x", 0) ];
  let net = Cluster.network db in
  let write_x v =
    match
      Cluster.run_update db ~root:1
        ~ops:[ Update.Write { node = 1; key = "x"; value = v } ]
    with
    | Update.Committed _ -> ()
    | _ -> Alcotest.fail "local write must commit"
  in
  let outcome = ref None in
  Sim.Engine.spawn engine (fun () ->
      write_x 1;
      (match Cluster.advance_and_wait db ~coordinator:0 with
      | `Completed 2 -> ()
      | _ -> Alcotest.fail "round 2 must complete");
      Cluster.crash db ~node:1;
      Cluster.recover db ~node:1;
      let n1 = Cluster.node db 1 in
      check_int "recovered u" 2 (Node_state.u n1);
      check_int "recovered q" 1 (Node_state.q n1);
      check_int "unforced Collect lost" (-1) (Node_state.g n1);
      write_x 2;
      Net.Network.set_link_down net ~src:0 ~dst:1 true;
      (match Cluster.advance db ~coordinator:0 with
      | `Started 3 -> ()
      | _ -> Alcotest.fail "round 3 must start");
      Sim.Engine.sleep 2.0;
      Net.Network.set_link_down net ~src:0 ~dst:1 false;
      check_int "node 0 entered round 3" 3 (Node_state.u (Cluster.node db 0));
      check_int "node 1 did not" 2 (Node_state.u n1);
      outcome :=
        Some
          (Cluster.run_update db ~root:0
             ~ops:
               [
                 Update.Write { node = 0; key = "y"; value = 1 };
                 Update.Write { node = 1; key = "x"; value = 3 };
               ]);
      check_int "node 1 raised to u=3" 3 (Node_state.u n1);
      check_int "version 0 collected first" 0 (Node_state.g n1));
  Sim.Engine.run engine;
  (match !outcome with
  | Some (Update.Committed c) ->
      check_int "decided V(T)" 3 c.Update.final_version
  | Some _ -> Alcotest.fail "the spanning transaction must commit"
  | None -> Alcotest.fail "the spanning transaction never finished");
  check_bool "at most three versions" true
    ((Cluster.stats db).Cluster.max_versions_ever <= 3);
  Alcotest.(check (list string))
    "invariants hold" [] (Cluster.check_invariants db)

(* {1 Exactly-once after the version decision} *)

(* An increment of k = 100 at node 1, rooted at node 0, on a unit-latency
   two-node cluster whose disk force (5) keeps the commit reply in flight
   long enough for a link cut to land after the decision.  The 1->0 link
   goes down [cut] time units after the transaction starts and heals 30
   later; an RPC timeout of 8 fires inside that window.  Whatever the
   executor and its retry policy, the increment must apply exactly once:
   a decided commit is redriven, never rerun. *)
let probe ~cut run =
  let config =
    {
      Ava3.Config.default with
      read_service_time = 1.0;
      write_service_time = 1.0;
      disk_force_latency = 5.0;
      rpc_timeout = 8.0;
    }
  in
  let engine = Sim.Engine.create ~seed:13L () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes:2 ()
  in
  Cluster.load db ~node:1 [ ("k", 100) ];
  let net = Cluster.network db in
  let outcome = ref None in
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      Sim.Engine.schedule engine ~delay:cut (fun () ->
          Net.Network.set_link_down net ~src:1 ~dst:0 true);
      Sim.Engine.schedule engine ~delay:(cut +. 30.0) (fun () ->
          Net.Network.set_link_down net ~src:1 ~dst:0 false);
      outcome := Some (run db));
  Sim.Engine.run engine;
  let label what = Printf.sprintf "cut %g: %s" cut what in
  (match !outcome with
  | Some `Committed | Some `In_doubt -> ()
  | Some `Aborted -> Alcotest.fail (label "expected Committed or In_doubt")
  | None -> Alcotest.fail (label "transaction never finished"));
  Alcotest.(check (option int))
    (label "applied exactly once") (Some 101)
    (Vstore.Store.read_le (Node_state.store (Cluster.node db 1)) "k" max_int);
  Alcotest.(check (list string))
    (label "quiescent") []
    (Cluster.check_quiescent_invariants db)

let incr_k = function None -> 1 | Some v -> v + 1
let cuts = [ 2.0; 4.0; 6.0; 8.0 ]

let kind = function
  | Ava3.Txn_core.Committed _ -> `Committed
  | Ava3.Txn_core.In_doubt _ -> `In_doubt
  | Ava3.Txn_core.Aborted _ | Ava3.Txn_core.Root_down _ -> `Aborted

let test_exactly_once_flat () =
  List.iter
    (fun cut ->
      probe ~cut (fun db ->
          kind
            (fst
               (Ava3.Txn_core.retry (fun () ->
                    Cluster.run_update db ~root:0
                      ~ops:
                        [
                          Update.Read_modify_write
                            { node = 1; key = "k"; f = incr_k };
                        ])))))
    cuts

let test_exactly_once_tree () =
  let plan =
    {
      Tree.at = 0;
      work = [];
      children =
        [
          {
            Tree.at = 1;
            work = [ Tree.Read_modify_write ("k", incr_k) ];
            children = [];
          };
        ];
    }
  in
  List.iter
    (fun cut ->
      probe ~cut (fun db ->
          kind
            (fst
               (Ava3.Txn_core.retry
                  ~retryable:(function Tree.Aborted _ -> true | _ -> false)
                  (fun () -> Cluster.run_tree_update db ~plan)))))
    cuts

let test_exactly_once_session () =
  List.iter
    (fun cut ->
      probe ~cut (fun db ->
          let s = Session.create db ~seed:4L ~coordinators:[ 0 ] in
          match
            Session.txn s (fun c ->
                Session.rmw c ~node:1 "k" incr_k)
          with
          | Session.Committed _ -> `Committed
          | Session.Failed { durable = _ :: _; _ } -> `In_doubt
          | Session.Failed _ -> `Aborted))
    cuts

let () =
  Alcotest.run "txn_core"
    [
      ( "root-down sentinel",
        [
          Alcotest.test_case "flat executor" `Quick test_root_down_flat;
          Alcotest.test_case "tree executor" `Quick test_root_down_tree;
        ] );
      ( "crash paths",
        [
          Alcotest.test_case "scan releases counters" `Quick
            test_scan_crash_releases_counters;
          Alcotest.test_case "tree orphaned dispatch rolled back" `Quick
            test_tree_orphaned_dispatch_rolled_back;
          Alcotest.test_case "commit-time raise catches up gc" `Quick
            test_commit_raise_catches_up_gc;
        ] );
      ( "exactly once",
        [
          Alcotest.test_case "flat executor" `Quick test_exactly_once_flat;
          Alcotest.test_case "tree executor" `Quick test_exactly_once_tree;
          Alcotest.test_case "session" `Quick test_exactly_once_session;
        ] );
    ]
