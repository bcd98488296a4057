(* Quickstart: a three-node AVA3 cluster in a simulation.

   Shows the public API end to end: build an engine and a cluster, preload
   data, run update transactions and lock-free queries, advance the version
   so queries see newer data, and read the protocol statistics.

   Run with: dune exec examples/quickstart.exe *)

module Cluster = Ava3.Cluster
module Update = Ava3.Update_exec

let () =
  (* All activity happens on a deterministic virtual clock. *)
  let engine = Sim.Engine.create ~seed:2024L () in
  let db : int Cluster.t = Cluster.create ~engine ~nodes:3 () in

  (* Preload some data (version 0). *)
  Cluster.load db ~node:0 [ ("alice", 100) ];
  Cluster.load db ~node:1 [ ("bob", 250) ];
  Cluster.load db ~node:2 [ ("carol", 75) ];

  (* Everything that talks to the database runs inside a simulation
     process. *)
  Sim.Engine.spawn engine (fun () ->
      (* A distributed update transaction: transfer 50 from alice (node 0)
         to bob (node 1).  Strict 2PL + 2PC underneath. *)
      (match
         Cluster.run_update db ~root:0
           ~ops:
             [
               Update.Read_modify_write
                 {
                   node = 0;
                   key = "alice";
                   f = (fun v -> Option.value v ~default:0 - 50);
                 };
               Update.Read_modify_write
                 {
                   node = 1;
                   key = "bob";
                   f = (fun v -> Option.value v ~default:0 + 50);
                 };
             ]
       with
      | Update.Committed c ->
          Printf.printf "[%.1f] transfer committed in version %d\n"
            (Sim.Engine.now engine) c.Update.final_version
      | Update.(Aborted _ | In_doubt _ | Root_down _) ->
          print_endline "transfer aborted");

      (* Queries read a consistent snapshot without locks.  Before any
         version advancement they still see version 0. *)
      let q = Cluster.run_query db ~root:2 ~reads:[ (0, "alice"); (1, "bob") ] in
      Printf.printf "[%.1f] query (snapshot v%d):" (Sim.Engine.now engine)
        q.Ava3.Query_exec.version;
      List.iter
        (fun (_, key, v) ->
          Printf.printf " %s=%s" key
            (match v with Some v -> string_of_int v | None -> "-"))
        q.Ava3.Query_exec.values;
      print_newline ();

      (* Advance the version: the committed transfer becomes readable. *)
      (match Cluster.advance_and_wait db ~coordinator:1 with
      | `Completed newu ->
          Printf.printf "[%.1f] advancement to u=%d complete\n"
            (Sim.Engine.now engine) newu
      | `Busy -> print_endline "advancement busy");

      let q2 = Cluster.run_query db ~root:2 ~reads:[ (0, "alice"); (1, "bob") ] in
      Printf.printf "[%.1f] query (snapshot v%d):" (Sim.Engine.now engine)
        q2.Ava3.Query_exec.version;
      List.iter
        (fun (_, key, v) ->
          Printf.printf " %s=%s" key
            (match v with Some v -> string_of_int v | None -> "-"))
        q2.Ava3.Query_exec.values;
      print_newline ());

  Sim.Engine.run engine;

  let stats = Cluster.stats db in
  Format.printf "stats: %a@." Cluster.pp_stats stats;
  match Cluster.check_invariants db with
  | [] -> print_endline "invariants: OK"
  | vs -> List.iter print_endline vs
