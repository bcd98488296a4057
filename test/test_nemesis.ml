(* Nemesis fault-injection tests: deterministic plans, crash-recovery of
   participants and coordinators mid-advancement (WAL replay, §3.2
   stalled-round re-initiation), and a full chaos run with continuous
   invariant probes. *)

module Cluster = Ava3.Cluster
module Node_state = Ava3.Node_state
module Update = Ava3.Update_exec
module Nemesis = Net.Nemesis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fault_config =
  { Ava3.Config.default with rpc_timeout = 15.0; advancement_retry = 25.0 }

(* {1 Plans} *)

let test_plan_deterministic () =
  let draw seed =
    let rng = Sim.Rng.create seed in
    Nemesis.random_plan ~rng ~nodes:4 ~horizon:500.0 ~crashes:3 ~partitions:2
      ~slow_links:1 ()
  in
  Alcotest.(check (list string))
    "same seed, same plan"
    (Nemesis.describe (draw 11L))
    (Nemesis.describe (draw 11L));
  check_bool "different seed, different plan" false
    (Nemesis.describe (draw 11L) = Nemesis.describe (draw 12L))

let test_plan_crashes_disjoint () =
  let rng = Sim.Rng.create 5L in
  let plan =
    Nemesis.random_plan ~rng ~nodes:3 ~horizon:600.0 ~crashes:4 ~partitions:0
      ~slow_links:0 ()
  in
  let windows =
    List.filter_map
      (function
        | Nemesis.Crash { at; duration; _ } -> Some (at, at +. duration)
        | _ -> None)
      plan
  in
  check_bool "got crash windows" true (List.length windows >= 2);
  let rec pairwise = function
    | [] | [ _ ] -> true
    | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && pairwise rest
  in
  let sorted = List.sort compare windows in
  check_bool "crash windows disjoint" true (pairwise sorted);
  List.iter
    (fun (_, e) -> check_bool "heals before horizon" true (e <= 600.0))
    sorted

let test_plan_validation () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:2 () in
  let target = Nemesis.network_target net in
  let bad plan =
    match Nemesis.install ~engine:e target plan with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "unknown node rejected" true
    (bad [ Nemesis.Crash { node = 7; at = 1.0; duration = 1.0 } ]);
  check_bool "self-partition rejected" true
    (bad [ Nemesis.Partition { a = 1; b = 1; at = 1.0; duration = 1.0 } ]);
  check_bool "zero duration rejected" true
    (bad [ Nemesis.Crash { node = 0; at = 1.0; duration = 0.0 } ])

let test_network_target_applies_faults () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:3 () in
  Nemesis.install ~engine:e (Nemesis.network_target net)
    [
      Nemesis.Crash { node = 1; at = 10.0; duration = 20.0 };
      Nemesis.Partition { a = 0; b = 2; at = 5.0; duration = 10.0 };
    ];
  Sim.Engine.run ~until:12.0 e;
  check_bool "node down inside window" true (Net.Network.is_down net ~node:1);
  check_bool "link cut inside window" true
    (Net.Network.link_is_down net ~src:0 ~dst:2);
  Sim.Engine.run ~until:100.0 e;
  check_bool "node recovered" false (Net.Network.is_down net ~node:1);
  check_bool "link healed" false (Net.Network.link_is_down net ~src:0 ~dst:2)

(* {1 Crash-recovery mid-advancement} *)

(* Kill a participant mid-round — after it acknowledged Phase 1 but before
   advance-q reaches it.  Volatile state is lost; on recovery the WAL
   replay restores u and committed data, and the coordinator's
   retransmission completes the round.  [Advancement.await_completion]
   must converge and the §6.2 invariants must hold at every probe. *)
let test_participant_crash_mid_advancement () =
  let engine = Sim.Engine.create ~seed:3L () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config:fault_config ~nodes:3 ()
  in
  for n = 0 to 2 do
    Cluster.load db ~node:n [ (Printf.sprintf "k%d" n, n) ]
  done;
  let violations = ref [] in
  let probe db = violations := Cluster.check_invariants db @ !violations in
  Sim.Engine.spawn engine (fun () ->
      (* Commit something remote first, so node 2's WAL replay has real
         work to redo. *)
      (match
         Cluster.run_update db ~root:0
           ~ops:[ Update.Write { node = 2; key = "k2"; value = 99 } ]
       with
      | Update.Committed _ -> ()
      | Update.(Aborted _ | In_doubt _ | Root_down _) ->
          Alcotest.fail "setup commit aborted");
      (match Cluster.advance db ~coordinator:0 with
      | `Started newu -> check_int "round number" 2 newu
      | `Busy -> Alcotest.fail "advance refused");
      (* With Constant 1.0 latency node 2 acks Phase 1 at +2.0 and would
         see advance-q at +3.0: crash in between. *)
      Sim.Engine.sleep 2.5;
      Cluster.crash db ~node:2;
      probe db;
      Sim.Engine.sleep 40.0;
      probe db;
      check_bool "round stalls while participant down" true
        (Cluster.advancement_in_progress db);
      Cluster.recover db ~node:2;
      probe db;
      Ava3.Advancement.await_completion (Cluster.state db) ~newu:2;
      probe db);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "no invariant violations" [] !violations;
  for i = 0 to 2 do
    let nd = Cluster.node db i in
    check_int (Printf.sprintf "node%d u" i) 2 (Node_state.u nd);
    check_int (Printf.sprintf "node%d q" i) 1 (Node_state.q nd)
  done;
  (* The committed write survived node 2's crash via WAL replay. *)
  let store2 = Node_state.store (Cluster.node db 2) in
  Alcotest.(check (option int))
    "committed data survived replay" (Some 99)
    (Vstore.Store.read_le store2 "k2" 9)

(* The coordinator crashes before collecting Phase-1 acks: its volatile
   round state is gone and the round stalls with u = q + 2 everywhere.
   A surviving node's [initiate] takes the §3.2 stalled-round path and
   re-runs the round idempotently. *)
let test_coordinator_crash_recovered_by_reinitiation () =
  let engine = Sim.Engine.create ~seed:7L () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config:fault_config ~nodes:3 ()
  in
  Cluster.load db ~node:0 [ ("x", 1) ];
  let violations = ref [] in
  Sim.Engine.spawn engine (fun () ->
      (match Cluster.advance db ~coordinator:1 with
      | `Started _ -> ()
      | `Busy -> Alcotest.fail "advance refused");
      (* advance-u lands everywhere at +1.0; acks arrive at +2.0.  Crash
         the coordinator in between: all nodes have u = 2, q = 0, and no
         coordinator exists to finish the round. *)
      Sim.Engine.sleep 1.5;
      Cluster.crash db ~node:1;
      violations := Cluster.check_invariants db @ !violations;
      Sim.Engine.sleep 30.0;
      Cluster.recover db ~node:1;
      violations := Cluster.check_invariants db @ !violations;
      Sim.Engine.sleep 5.0;
      (* u = q + 2 locally: initiate re-runs the stalled round. *)
      (match Cluster.advance db ~coordinator:0 with
      | `Started newu -> check_int "re-initiated same round" 2 newu
      | `Busy -> Alcotest.fail "re-initiation refused");
      Ava3.Advancement.await_completion (Cluster.state db) ~newu:2;
      violations := Cluster.check_invariants db @ !violations);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "no invariant violations" [] !violations;
  for i = 0 to 2 do
    let nd = Cluster.node db i in
    check_int (Printf.sprintf "node%d u" i) 2 (Node_state.u nd);
    check_int (Printf.sprintf "node%d q" i) 1 (Node_state.q nd)
  done

(* An update racing a partition times out and aborts; after the heal the
   same operations commit. *)
let test_update_times_out_then_succeeds_after_heal () =
  let engine = Sim.Engine.create ~seed:9L () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config:fault_config ~nodes:2 ()
  in
  Cluster.load db ~node:1 [ ("y", 1) ];
  let net = Cluster.network db in
  Net.Network.set_link_down net ~src:0 ~dst:1 true;
  let first = ref None and second = ref None in
  Sim.Engine.spawn engine (fun () ->
      first :=
        Some
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 1; key = "y"; value = 2 } ]);
      Net.Network.set_link_down net ~src:0 ~dst:1 false;
      second :=
        Some
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 1; key = "y"; value = 2 } ]));
  Sim.Engine.run engine;
  (match !first with
  | Some (Update.Aborted { reason = `Rpc_timeout 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Rpc_timeout abort across the partition");
  (match !second with
  | Some (Update.Committed _) -> ()
  | _ -> Alcotest.fail "expected commit after heal");
  Alcotest.(check (list string))
    "invariants hold" [] (Cluster.check_invariants db)

(* {1 Full chaos run} *)

(* Crash + recover + partition + slow link under a mixed workload: the run
   drains (the engine would raise [Deadlocked] on a livelock), advancement
   completes, invariants hold at every probe, and the whole run is a pure
   function of the seed. *)
let chaos_fingerprint seed =
  let engine = Sim.Engine.create ~seed () in
  let nodes = 3 in
  let db : int Cluster.t =
    Cluster.create ~engine ~config:fault_config ~nodes ()
  in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  for n = 0 to nodes - 1 do
    Cluster.load db ~node:n
      (List.init 8 (fun i -> (Printf.sprintf "n%d-k%d" n i, i)))
  done;
  let horizon = 400.0 in
  let plan =
    Nemesis.random_plan ~rng ~nodes ~horizon:(horizon *. 0.8) ~crashes:2
      ~partitions:1 ~slow_links:1 ~min_duration:25.0 ~max_duration:50.0
      ~extra_latency:3.0 ()
  in
  check_bool "plan exercises crash and partition" true
    (List.exists (function Nemesis.Crash _ -> true | _ -> false) plan
    && List.exists (function Nemesis.Partition _ -> true | _ -> false) plan);
  Nemesis.install ~engine (Cluster.nemesis_target db) plan;
  let commits = ref 0 and aborts = ref 0 in
  for u = 0 to 39 do
    Sim.Engine.schedule engine ~delay:(float_of_int u *. 10.0) (fun () ->
        let root = Sim.Rng.int rng nodes in
        let n = Sim.Rng.int rng nodes in
        let key = Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng 8) in
        match
          Ava3.Txn_core.retry ~max_attempts:4 ~backoff:10.0 (fun () ->
              Cluster.run_update db ~root
                ~ops:[ Update.Write { node = n; key; value = u } ])
        with
        | Update.Committed _, _ -> incr commits
        | (Update.(Aborted _ | In_doubt _ | Root_down _)), _ -> incr aborts)
  done;
  (* Advancement beats from the first alive node. *)
  for b = 1 to int_of_float (horizon /. 40.0) do
    Sim.Engine.schedule engine ~delay:(float_of_int b *. 40.0) (fun () ->
        let rec first_alive k =
          if k >= nodes then None
          else if Node_state.alive (Cluster.node db k) then Some k
          else first_alive (k + 1)
        in
        match first_alive 0 with
        | Some k -> ignore (Cluster.advance db ~coordinator:k)
        | None -> ())
  done;
  (* Continuous invariant probes. *)
  let violations = ref [] in
  for p = 0 to 39 do
    Sim.Engine.schedule engine ~delay:(float_of_int p *. 12.0) (fun () ->
        violations := Cluster.check_invariants db @ !violations)
  done;
  Sim.Engine.run engine;
  violations := Cluster.check_invariants db @ !violations;
  Alcotest.(check (list string)) "no invariant violations" [] !violations;
  check_bool "made progress under faults" true (!commits > 10);
  check_bool "advancement completed under faults" true
    ((Cluster.stats db).Cluster.advancements >= 2);
  (* Fingerprint: every headline counter plus the final version vector. *)
  let s = Cluster.stats db in
  Printf.sprintf "c=%d a=%d adv=%d msg=%d vv=%s" s.Cluster.commits
    s.Cluster.aborts s.Cluster.advancements s.Cluster.messages
    (String.concat ","
       (List.init nodes (fun i ->
            let nd = Cluster.node db i in
            Printf.sprintf "%d:%d:%d" (Node_state.u nd) (Node_state.q nd)
              (Node_state.g nd))))

let test_chaos_run_deterministic () =
  let f1 = chaos_fingerprint 21L in
  let f2 = chaos_fingerprint 21L in
  Alcotest.(check string) "same seed, same run" f1 f2

let () =
  Alcotest.run "nemesis"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "crashes disjoint" `Quick
            test_plan_crashes_disjoint;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "network target" `Quick
            test_network_target_applies_faults;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "participant crash mid-advancement" `Quick
            test_participant_crash_mid_advancement;
          Alcotest.test_case "coordinator crash re-initiated" `Quick
            test_coordinator_crash_recovered_by_reinitiation;
          Alcotest.test_case "timeout then heal" `Quick
            test_update_times_out_then_succeeds_after_heal;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic run" `Quick
            test_chaos_run_deterministic;
        ] );
    ]
