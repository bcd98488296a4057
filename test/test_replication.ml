(* Replication tests: version-pinned backup reads are byte-identical to
   primary reads at the same pin (property, 10 seeds x both gc_renumber
   rules), primary-crash failover loses no acknowledged commit, and a
   partitioned backup is demoted (commits keep flowing) then re-syncs and
   re-earns its read-set membership after the partition heals. *)

module Cluster = Ava3.Cluster
module Cluster_state = Ava3.Cluster_state
module Node_state = Ava3.Node_state
module Update = Ava3.Update_exec
module Store = Vstore.Store

let check_bool = Alcotest.(check bool)

(* {1 Pinned-read equivalence} *)

let keys p = List.init 4 (fun j -> Printf.sprintf "k%d_%d" p j)

(* Mixed workload on 3 partitions x 2 backups: writers, cross-partition
   queries (exercising backup routing), periodic advancement.  An online
   probe compares primary and backup answers at the same pin whenever
   their query versions coincide; a final quiescent sweep requires every
   backup store to agree with its primary on every key. *)
let equivalence_run ~seed ~gc_renumber =
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      replicas = 2;
      gc_renumber;
      replica_catchup_timeout = 10.0;
    }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:3 () in
  let cs = Cluster.state db in
  for p = 0 to 2 do
    Cluster.load db ~node:p (List.map (fun k -> (k, 0)) (keys p))
  done;
  let mismatches = ref [] in
  let violations = ref [] in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 40 do
        let p = i mod 3 in
        let key = Printf.sprintf "k%d_%d" p (i mod 4) in
        ignore
          (Ava3.Txn_core.retry (fun () ->
               Cluster.run_update db ~root:p
                 ~ops:[ Update.Write { node = p; key; value = i } ])
            : int Update.outcome * int);
        Sim.Engine.sleep 3.0
      done);
  Sim.Engine.spawn engine (fun () ->
      let reads =
        List.concat_map (fun p -> List.map (fun k -> (p, k)) (keys p)) [ 0; 1; 2 ]
      in
      for i = 0 to 30 do
        (try ignore (Cluster.run_query db ~root:(i mod 3) ~reads) with _ -> ());
        Sim.Engine.sleep 4.0
      done);
  Cluster.start_periodic_advancement db ~coordinator:0 ~period:20.0 ~until:140.0;
  (* Online probe: same pin => same answer, for every key of the backup's
     partition, at any moment the backup advertises the primary's query
     version. *)
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to 28 do
        Sim.Engine.sleep 5.0;
        violations := Cluster.check_invariants db @ !violations;
        for p = 0 to 2 do
          let pnode = Cluster_state.primary cs p in
          Array.iter
            (fun b ->
              let bnode = Cluster.node db b.Cluster_state.b_site in
              if
                b.Cluster_state.b_insync && Node_state.alive bnode
                && Node_state.alive pnode
                && Node_state.q bnode = Node_state.q pnode
              then begin
                let pin = Node_state.q pnode in
                List.iter
                  (fun k ->
                    let vp = Store.read_le (Node_state.store pnode) k pin in
                    let vb = Store.read_le (Node_state.store bnode) k pin in
                    if vp <> vb then
                      mismatches :=
                        Printf.sprintf
                          "seed=%Ld renumber=%b t=%.1f part=%d site%d key=%s \
                           pin=%d"
                          seed gc_renumber (Sim.Engine.now engine) p
                          b.Cluster_state.b_site k pin
                        :: !mismatches)
                  (keys p)
              end)
            (Cluster_state.backups cs p)
        done
      done);
  Sim.Engine.run engine;
  (* Quiescent: every backup converged to its primary's exact state. *)
  for p = 0 to 2 do
    let pnode = Cluster_state.primary cs p in
    Array.iter
      (fun b ->
        let bnode = Cluster.node db b.Cluster_state.b_site in
        if Node_state.q bnode <> Node_state.q pnode then
          mismatches :=
            Printf.sprintf "seed=%Ld: site%d final q %d <> primary q %d" seed
              b.Cluster_state.b_site (Node_state.q bnode) (Node_state.q pnode)
            :: !mismatches;
        List.iter
          (fun k ->
            let pin = Node_state.q pnode in
            if
              Store.read_le (Node_state.store pnode) k pin
              <> Store.read_le (Node_state.store bnode) k pin
            then
              mismatches :=
                Printf.sprintf "seed=%Ld: site%d final state differs on %s" seed
                  b.Cluster_state.b_site k
                :: !mismatches)
          (keys p))
      (Cluster_state.backups cs p)
  done;
  Alcotest.(check (list string))
    (Printf.sprintf "no invariant violations (seed %Ld)" seed)
    [] !violations;
  Alcotest.(check (list string))
    (Printf.sprintf "pinned reads identical (seed %Ld)" seed)
    [] !mismatches;
  (Cluster.stats db).Cluster.backup_reads

let test_equivalence_across_seeds () =
  let renumber_runs = ref 0 in
  List.iter
    (fun gc_renumber ->
      for seed = 1 to 10 do
        let reads = equivalence_run ~seed:(Int64.of_int seed) ~gc_renumber in
        renumber_runs := !renumber_runs + reads
      done)
    [ false; true ];
  (* Routing must actually spread reads over backups, or the property
     above tested nothing. *)
  check_bool "some reads served by backups" true (!renumber_runs > 0)

(* {1 Failover: no acknowledged commit is lost} *)

let test_failover_no_acked_loss () =
  let engine = Sim.Engine.create ~seed:21L ~trace:false () in
  let config =
    { Ava3.Config.default with replicas = 2; replica_catchup_timeout = 8.0 }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
  let cs = Cluster.state db in
  Cluster.load db ~node:0 [ ("seed0", 0) ];
  Cluster.load db ~node:1 [ ("seed1", 0) ];
  let acked = ref [] in
  let after_crash = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 30 do
        let key = Printf.sprintf "w%d" i in
        (match
           Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key; value = i } ]
         with
        | Update.Committed _ ->
            acked := (key, i) :: !acked;
            if Sim.Engine.now engine > 25.0 then incr after_crash
        | Update.(Aborted _ | In_doubt _ | Root_down _) -> ());
        Sim.Engine.sleep 2.0
      done);
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 25.0;
      Cluster.crash db ~node:0);
  Sim.Engine.run engine;
  let s = Cluster.stats db in
  check_bool "a backup was promoted" true (s.Cluster.replica_promotions >= 1);
  let np = Cluster_state.primary cs 0 in
  check_bool "partition 0 has a new primary" true (Node_state.id np <> 0);
  check_bool "commits continued after failover" true (!after_crash > 0);
  check_bool "some commits were acknowledged before the crash" true
    (List.exists (fun (_, i) -> i <= 10) !acked);
  (* Every acknowledged commit — before or after the failover — is
     readable at the new primary. *)
  List.iter
    (fun (key, v) ->
      Alcotest.(check (option int))
        (Printf.sprintf "acked %s survived failover" key)
        (Some v)
        (Store.read_le (Node_state.store np) key (Node_state.u np)))
    !acked

(* {1 Partition: demotion keeps commits flowing, healing re-syncs} *)

let test_demotion_and_resync () =
  let engine = Sim.Engine.create ~seed:5L ~trace:false () in
  let config =
    { Ava3.Config.default with replicas = 1; replica_catchup_timeout = 5.0 }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:1 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  Cluster.load db ~node:0 [ ("a", 0) ];
  let committed_during_partition = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 25 do
        (match
           Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key = "a"; value = i } ]
         with
        | Update.Committed _ ->
            let t = Sim.Engine.now engine in
            if t > 12.0 && t < 40.0 then incr committed_during_partition
        | Update.(Aborted _ | In_doubt _ | Root_down _) -> ());
        Sim.Engine.sleep 3.0
      done);
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 10.0;
      Net.Network.set_link_down net ~src:0 ~dst:1 true;
      Net.Network.set_link_down net ~src:1 ~dst:0 true;
      Sim.Engine.sleep 30.0;
      Net.Network.set_link_down net ~src:0 ~dst:1 false;
      Net.Network.set_link_down net ~src:1 ~dst:0 false);
  Sim.Engine.run engine;
  let s = Cluster.stats db in
  check_bool "straggling backup was demoted" true
    (s.Cluster.replica_demotions >= 1);
  check_bool "commits kept flowing during the partition" true
    (!committed_during_partition > 0);
  (* After healing, the next gated commits re-ship the backlog and the
     backup re-earns its in-sync status and exact convergence. *)
  let b = (Cluster_state.backups cs 0).(0) in
  check_bool "backup back in sync after healing" true b.Cluster_state.b_insync;
  let pnode = Cluster_state.primary cs 0 in
  let bnode = Cluster.node db b.Cluster_state.b_site in
  Alcotest.(check (option int))
    "backup converged to the primary's final value"
    (Store.read_le (Node_state.store pnode) "a" (Node_state.u pnode))
    (Store.read_le (Node_state.store bnode) "a" (Node_state.u bnode))

let () =
  Alcotest.run "replication"
    [
      ( "equivalence",
        [
          Alcotest.test_case "pinned backup reads, 10 seeds x 2 gc rules"
            `Quick test_equivalence_across_seeds;
        ] );
      ( "failover",
        [
          Alcotest.test_case "no acked commit lost" `Quick
            test_failover_no_acked_loss;
        ] );
      ( "partition",
        [
          Alcotest.test_case "demotion and re-sync" `Quick
            test_demotion_and_resync;
        ] );
    ]
