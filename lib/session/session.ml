module Cluster = Ava3.Cluster
module Cluster_state = Ava3.Cluster_state
module Config = Ava3.Config
module Txn_core = Ava3.Txn_core
module Subtxn = Ava3.Subtxn
module Query_exec = Ava3.Query_exec

type 'v t = {
  db : 'v Cluster.t;
  cs : 'v Cluster_state.t;
  session_rng : Sim.Rng.t;
  conns : int array;  (* logical connection -> pinned coordinator partition *)
  mutable next_conn : int;
}

let create ?pool ?coordinators ~seed db =
  let cs = Cluster.state db in
  let config = Cluster.config db in
  let pool =
    match pool with Some p -> p | None -> config.Config.session_pool_size
  in
  if pool < 1 then invalid_arg "Session.create: pool must be >= 1";
  let coords =
    match coordinators with
    | Some [] -> invalid_arg "Session.create: empty coordinator list"
    | Some l -> Array.of_list l
    | None -> Array.init (Cluster_state.nparts cs) Fun.id
  in
  {
    db;
    cs;
    (* Forked by name from the seed's origin: equal seeds give equal
       jitter streams no matter how many draws anything else made. *)
    session_rng = Sim.Rng.fork_named (Sim.Rng.create seed) "session";
    conns = Array.init pool (fun i -> coords.(i mod Array.length coords));
    next_conn = 0;
  }

let cluster t = t.db
let rng t = t.session_rng

(* Round-robin connection checkout: each attempt (including retries after
   [Root_down]) lands on the next pooled coordinator, so a dead site is
   skipped by construction once per pool cycle. *)
let next_root t =
  let root = t.conns.(t.next_conn mod Array.length t.conns) in
  t.next_conn <- t.next_conn + 1;
  root

type 'v ctx = {
  session : 'v t;
  txn : 'v Txn_core.t;
  reads : (string * 'v option) list ref;  (* newest first *)
}

exception Rollback

let read c ~node key =
  let v =
    Txn_core.at_node c.txn node (fun sub -> Subtxn.read c.session.cs sub key)
  in
  c.reads := (key, v) :: !(c.reads);
  v

let write c ~node key value =
  Txn_core.at_node c.txn node (fun sub ->
      Subtxn.write c.session.cs sub key value)

let rmw c ~node key f =
  Txn_core.at_node c.txn node (fun sub ->
      Subtxn.read_modify_write c.session.cs sub key f)

let delete c ~node key =
  Txn_core.at_node c.txn node (fun sub -> Subtxn.delete c.session.cs sub key)

let pause _c d = Sim.Engine.sleep d

let nested c f =
  let sp = Txn_core.savepoint c.txn in
  let saved_reads = !(c.reads) in
  match f () with
  | v -> Ok v
  | exception Rollback ->
      Txn_core.rollback_to c.txn sp;
      (* Reads made inside the scope are void (see Subtxn.rollback_to);
         drop them from the transaction's observation list too. *)
      c.reads := saved_reads;
      Error `Rolled_back
  | exception Subtxn.Txn_abort `Deadlock when Txn_core.running c.txn ->
      (* The denial refused our request but rolled nothing back, so
         releasing the scope's locks can break the cycle; hand the
         decision (rerun the scope, or give up the attempt) to the
         caller. *)
      Txn_core.rollback_to c.txn sp;
      c.reads := saved_reads;
      Error `Deadlock

type failure = Aborted of Txn_core.abort_reason | Root_down of int

type ('v, 'a) commit = {
  value : 'a;
  txn_id : int;
  final_version : int;
  attempts : int;
  reads : (string * 'v option) list;
  finished_at : float;
  participants : (int * float) list;
}

type ('v, 'a) outcome =
  | Committed of ('v, 'a) commit
  | Failed of {
      attempts : int;
      last : failure;
      durable : (int * float) list;
      version : int;
    }

let backoff_of s ~config k =
  let jitter = 0.5 +. Sim.Rng.float s.session_rng 1.0 in
  config.Config.retry_backoff_base *. Float.pow 2.0 (float_of_int k) *. jitter

(* The session's policy over {!Sim.Retry.run}: each attempt checks out the
   next pooled coordinator, and a retry sleeps a seeded, jittered
   exponential backoff recorded against the root that failed. *)
let retry_loop s ?retries ~retryable run =
  let config = Cluster.config s.db in
  let budget =
    match retries with Some r -> r | None -> config.Config.max_retries
  in
  let root = ref 0 in
  Sim.Retry.run ~max_attempts:(budget + 1) ~retryable
    ~backoff:(fun k ->
      let backoff = backoff_of s ~config k in
      Sim.Metrics.record_session_retry s.cs.Cluster_state.metrics ~node:!root
        ~backoff;
      backoff)
    (fun () ->
      root := next_root s;
      run ~root:!root)

(* Each attempt is {!Txn_core.run} driven by the client function: a commit
   round that fails after the decision is redriven there, never rerun
   here, so only a clean [Aborted] (or a down root) is retried. *)
let txn ?retries s f =
  let client_gave_up = ref false in
  let body ~root t =
    let c = { session = s; txn = t; reads = ref [] } in
    ignore (Txn_core.sub t root : _ Subtxn.t);
    match f c with
    | v -> (v, List.rev !(c.reads))
    | exception Rollback ->
        (* Rollback outside any scope: the client abandoned the
           transaction itself.  Abort (recorded deadlock-class) and never
           retry — rerunning would just abandon again. *)
        client_gave_up := true;
        raise (Subtxn.Txn_abort `Deadlock)
  in
  let retryable = function
    | Txn_core.Aborted _ -> not !client_gave_up
    | Txn_core.Root_down _ -> true
    | Txn_core.Committed _ | Txn_core.In_doubt _ -> false
  in
  match
    retry_loop s ?retries ~retryable (fun ~root ->
        Txn_core.run s.cs ~root (body ~root))
  with
  | Txn_core.Committed c, attempts ->
      let value, reads = c.value in
      Committed
        {
          value;
          txn_id = c.txn_id;
          final_version = c.final_version;
          attempts;
          reads;
          finished_at = c.finished_at;
          participants = c.participants;
        }
  | Txn_core.Aborted { reason; _ }, attempts ->
      Failed { attempts; last = Aborted reason; durable = []; version = 0 }
  | Txn_core.In_doubt { reason; durable; version; _ }, attempts ->
      (* [durable] tells the caller exactly which homes hold the writes. *)
      Failed { attempts; last = Aborted reason; durable; version }
  | Txn_core.Root_down { root }, attempts ->
      Failed { attempts; last = Root_down root; durable = []; version = 0 }

(* Read-only queries hold no locks and clean up their counters on the way
   out, so every failure is retryable. *)
let query_retry s run =
  fst
    (retry_loop s ~retryable:Result.is_error (fun ~root ->
         match run ~root with
         | v -> Ok v
         | exception Net.Network.Node_down n -> Error (Aborted (`Node_down n))
         | exception Net.Network.Rpc_timeout n ->
             Error (Aborted (`Rpc_timeout n))))

let query s ~reads =
  query_retry s (fun ~root -> Cluster.run_query s.db ~root ~reads)

let select s ~plan ~ranges =
  query_retry s (fun ~root -> Cluster.run_select s.db ~root ~plan ~ranges)

let join s ~plan ~build ~probe =
  query_retry s (fun ~root -> Cluster.run_join s.db ~root ~plan ~build ~probe)

module Dsl = struct
  (* The combinator names below shadow the session entry points, so keep
     handles to the real ones for the interpreter. *)
  let session_txn = txn
  let session_query = query
  let session_select = select
  let session_join = join
  let session_pause = pause

  type 'v step =
    | S_read of int * string
    | S_write of int * string * 'v
    | S_rmw of int * string * ('v option -> 'v)
    | S_delete of int * string
    | S_pause of float
    | S_scope of 'v step list
    | S_expect_abort of 'v step list

  let sread ~node key = S_read (node, key)
  let swrite ~node key v = S_write (node, key, v)
  let srmw ~node key f = S_rmw (node, key, f)
  let sdelete ~node key = S_delete (node, key)
  let spause d = S_pause d
  let scope steps = S_scope steps
  let expect_abort steps = S_expect_abort steps

  type 'v prog =
    | P_txn of 'v step list
    | P_query of (int * string) list
    | P_select of Query_exec.select_plan * (int * string * string) list
    | P_join of
        Query_exec.select_plan
        * (int list * string * string)
        * (int list * string * string)
    | P_seq of 'v prog list
    | P_loop of int * 'v prog
    | P_choice of string * 'v prog list
    | P_pause of float

  let txn steps = P_txn steps
  let query reads = P_query reads
  let select ~plan ~ranges = P_select (plan, ranges)
  let join ~plan ~build ~probe = P_join (plan, build, probe)
  let seq progs = P_seq progs
  let loop n prog = P_loop (n, prog)
  let choice ~label progs = P_choice (label, progs)
  let pause d = P_pause d

  type summary = {
    committed : int;
    failed : int;
    attempts : int;
    queries : int;
    query_failures : int;
    rolled_back : int;
  }

  let empty_summary =
    {
      committed = 0;
      failed = 0;
      attempts = 0;
      queries = 0;
      query_failures = 0;
      rolled_back = 0;
    }

  let add_summary a b =
    {
      committed = a.committed + b.committed;
      failed = a.failed + b.failed;
      attempts = a.attempts + b.attempts;
      queries = a.queries + b.queries;
      query_failures = a.query_failures + b.query_failures;
      rolled_back = a.rolled_back + b.rolled_back;
    }

  let seeded_choose rng ~label n =
    ignore label;
    Sim.Rng.int rng n

  let explorer_choose s ~label n =
    Sim.Engine.branch s.cs.Cluster_state.engine ~label n

  (* [rolled] counts expect_abort rollbacks across every attempt of the
     enclosing transaction, retries included: it measures work done, not
     transactions finished. *)
  let rec exec_step s c rolled = function
    | S_read (node, key) -> ignore (read c ~node key : _ option)
    | S_write (node, key, v) -> write c ~node key v
    | S_rmw (node, key, f) -> rmw c ~node key f
    | S_delete (node, key) -> delete c ~node key
    | S_pause d -> session_pause c d
    | S_scope steps -> (
        match
          nested c (fun () -> List.iter (exec_step s c rolled) steps)
        with
        | Ok () -> ()
        | Error `Rolled_back -> () (* unreachable: no Rollback raised *)
        | Error `Deadlock ->
            (* The scope was rolled back, but the DSL's policy is to give
               the whole attempt back to the session retry loop rather
               than rerun the scope inside a half-done transaction. *)
            raise (Subtxn.Txn_abort `Deadlock))
    | S_expect_abort steps -> (
        match
          nested c (fun () ->
              List.iter (exec_step s c rolled) steps;
              raise Rollback)
        with
        | Ok _ -> assert false (* the scope always raises *)
        | Error `Rolled_back -> incr rolled
        | Error `Deadlock -> raise (Subtxn.Txn_abort `Deadlock))

  let run ?choose s prog =
    let choose =
      match choose with Some f -> f | None -> seeded_choose s.session_rng
    in
    let rec go sum = function
      | P_txn steps ->
          let rolled = ref 0 in
          let sum =
            match
              session_txn s (fun c -> List.iter (exec_step s c rolled) steps)
            with
            | Committed { attempts; _ } ->
                {
                  sum with
                  committed = sum.committed + 1;
                  attempts = sum.attempts + attempts;
                }
            | Failed { attempts; _ } ->
                {
                  sum with
                  failed = sum.failed + 1;
                  attempts = sum.attempts + attempts;
                }
          in
          { sum with rolled_back = sum.rolled_back + !rolled }
      | P_query reads -> (
          match session_query s ~reads with
          | Ok _ -> { sum with queries = sum.queries + 1 }
          | Error _ -> { sum with query_failures = sum.query_failures + 1 })
      | P_select (plan, ranges) -> (
          match session_select s ~plan ~ranges with
          | Ok _ -> { sum with queries = sum.queries + 1 }
          | Error _ -> { sum with query_failures = sum.query_failures + 1 })
      | P_join (plan, build, probe) -> (
          match session_join s ~plan ~build ~probe with
          | Ok _ -> { sum with queries = sum.queries + 1 }
          | Error _ -> { sum with query_failures = sum.query_failures + 1 })
      | P_seq progs -> List.fold_left go sum progs
      | P_loop (n, prog) ->
          let acc = ref sum in
          for _ = 1 to n do
            acc := go !acc prog
          done;
          !acc
      | P_choice (label, progs) ->
          let n = List.length progs in
          if n = 0 then sum else go sum (List.nth progs (choose ~label n))
      | P_pause d ->
          Sim.Engine.sleep d;
          sum
    in
    go empty_summary prog

  let gen_key ~node i = Printf.sprintf "k%d_%d" node i

  let gen ~rng ~nodes ~keys_per_node ~txns =
    let key () =
      let node = Sim.Rng.int rng nodes in
      (node, gen_key ~node (Sim.Rng.int rng keys_per_node))
    in
    let incr_f = function None -> 1 | Some v -> v + 1 in
    let plain_step () =
      let node, k = key () in
      let roll = Sim.Rng.int rng 100 in
      if roll < 40 then srmw ~node k incr_f
      else if roll < 65 then sread ~node k
      else if roll < 85 then swrite ~node k (Sim.Rng.int rng 1000)
      else if roll < 95 then sdelete ~node k
      else spause (Sim.Rng.float rng 0.5)
    in
    let step () =
      let roll = Sim.Rng.int rng 100 in
      if roll < 25 then
        scope (List.init (1 + Sim.Rng.int rng 3) (fun _ -> plain_step ()))
      else if roll < 37 then
        expect_abort
          (List.init (1 + Sim.Rng.int rng 3) (fun _ -> plain_step ()))
      else plain_step ()
    in
    let one_txn () = txn (List.init (2 + Sim.Rng.int rng 5) (fun _ -> step ())) in
    let progs =
      List.concat
        (List.init txns (fun i ->
             let t = one_txn () in
             let extras =
               if i mod 5 = 4 then
                 let node, k = key () in
                 [ query [ (node, k) ] ]
               else if Sim.Rng.chance rng 0.15 then
                 [ pause (Sim.Rng.float rng 2.0) ]
               else []
             in
             t :: extras))
    in
    seq progs
end
