open Cluster_state

type abort_reason = Subtxn.abort_reason

type 'v t = {
  cs : 'v Cluster_state.t;
  root : int;
  txn_id : int;
  started_at : float;
  state : Subtxn.state ref;
  subs : (int, 'v Subtxn.t) Hashtbl.t;
}

type in_doubt = {
  txn_id : int;
  version : int;
  durable : (int * float) list;
  reason : abort_reason;
}

type 'info outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : abort_reason }
  | In_doubt of in_doubt
  | Root_down of { root : int }

type 'a commit = {
  value : 'a;
  txn_id : int;
  final_version : int;
  started_at : float;
  finished_at : float;
  participants : (int * float) list;
}

(* Replication: updates run at primaries only.  Callers keep addressing
   partitions (0 .. nparts-1); each partition resolves to its current
   primary site here, so a transaction started after a failover lands on
   the promoted backup transparently. *)
let site_of = home_site

let create cs ~root =
  let root = site_of cs root in
  let root_node = node cs root in
  if not (Node_state.alive root_node) then begin
    (* No transaction id was allocated and nothing ran anywhere: this is
       a rejection, not an abort, and is counted as such. *)
    Sim.Metrics.record_root_down cs.metrics ~node:root;
    None
  end
  else
    Some
      {
        cs;
        root;
        txn_id = Node_state.fresh_txn_id root_node;
        started_at = now cs;
        state = ref Subtxn.Running;
        subs = Hashtbl.create 8;
      }

let running t = !(t.state) = Subtxn.Running
let site s = Node_state.id (Subtxn.node s)

(* Highest version any subtransaction currently runs in; carried with new
   subtransaction dispatch when the §10 piggybacking is on. *)
let carried t =
  Hashtbl.fold (fun _ s acc -> max acc (Subtxn.version s)) t.subs 0

let register t n ~carried =
  let sub =
    Subtxn.start t.cs ~txn_id:t.txn_id ~state:t.state ~node:(node t.cs n)
      ~carried
  in
  Hashtbl.replace t.subs n sub;
  (match !(t.state) with
  | Subtxn.Running -> ()
  | Subtxn.Aborting | Subtxn.Finished ->
      (* Orphaned dispatch: the transaction aborted (RPC timeout) while
         this request was in flight, so [abort_all] has already run and
         will never see this subtransaction.  Roll it back here or its
         update counter leaks and blocks Phase 1 of every future
         advancement. *)
      Subtxn.abort t.cs sub;
      raise (Subtxn.Txn_abort `Deadlock));
  sub

let sub t n =
  let n = site_of t.cs n in
  match Hashtbl.find_opt t.subs n with
  | Some s -> s
  | None -> register t n ~carried:(carried t)

let find_sub t n = Hashtbl.find_opt t.subs (site_of t.cs n)

let sub_list t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.subs []
  |> List.sort (fun a b -> compare (site a) (site b))

let sub_versions t =
  Hashtbl.fold (fun _ s acc -> Subtxn.version s :: acc) t.subs []

let at_node t n f =
  let n = site_of t.cs n in
  if n = t.root then f (sub t n)
  else Net.Network.call t.cs.net ~src:t.root ~dst:n (fun () -> f (sub t n))

(* Run [f] on a registered subtransaction at its own node — by site, not
   by partition, so a failover since dispatch cannot reroute it. *)
let at_sub t s f =
  if site s = t.root then f s
  else Net.Network.call t.cs.net ~src:t.root ~dst:(site s) (fun () -> f s)

type 'v savepoint = { sp_subs : (int * 'v Subtxn.savepoint) list }

let savepoint t =
  {
    sp_subs =
      List.map
        (fun s -> (site s, at_node t (site s) (Subtxn.savepoint t.cs)))
        (sub_list t);
  }

let rollback_to t sp =
  List.iter
    (fun s ->
      let n = site s in
      match List.assoc_opt n sp.sp_subs with
      | Some mark -> at_node t n (fun s -> Subtxn.rollback_to t.cs s mark)
      | None ->
          (* The subtransaction was dispatched inside the scope: its whole
             life is being rolled back, so abort it outright and drop it
             from the registry (a later operation at the node starts
             fresh). *)
          at_node t n (fun s -> Subtxn.abort t.cs s);
          Hashtbl.remove t.subs n)
    (sub_list t);
  Sim.Metrics.record_savepoint_rollback t.cs.metrics ~node:t.root

let decide_version t versions =
  let final_version = List.fold_left max 0 versions in
  if List.exists (fun v -> v <> final_version) versions then begin
    Sim.Metrics.record_version_mismatch t.cs.metrics ~node:t.root;
    (* Synchronous-advancement baseline: a mismatch cannot be repaired,
       so the decision is to abort (detected before any participant
       commits). *)
    if t.cs.config.Config.abort_on_version_mismatch then
      raise (Subtxn.Txn_abort `Version_mismatch)
  end;
  final_version

let finish_commit t ~final_version =
  t.state := Subtxn.Finished;
  Sim.Metrics.record_commit t.cs.metrics ~node:t.root;
  if tracing t.cs then
    emit t.cs ~tag:"txn"
      (Printf.sprintf "T%d: committed in version %d (root node%d)" t.txn_id
         final_version t.root)

let pp_reason = function
  | `Deadlock -> "deadlock"
  | `Node_down n -> Printf.sprintf "node %d down" n
  | `Rpc_timeout n -> Printf.sprintf "rpc to node %d timed out" n
  | `Version_mismatch -> "version mismatch"

let abort_all t reason =
  (* Bookkeeping runs on direct references: sessions at nodes that have
     crashed since are orphans and rolling them back is harmless.
     Participants that already committed are past the point of no return
     and are left alone by Subtxn.abort. *)
  t.state := Subtxn.Aborting;
  List.iter (fun s -> Subtxn.abort t.cs s) (sub_list t);
  Sim.Metrics.record_abort t.cs.metrics ~node:t.root reason;
  if tracing t.cs then
    emit t.cs ~tag:"txn"
      (Printf.sprintf "T%d: aborted at root node%d (%s)" t.txn_id t.root
         (pp_reason reason))

(* The three transaction-fatal exceptions, as an abort reason. *)
let catch f =
  match f () with
  | v -> Ok v
  | exception Subtxn.Txn_abort reason -> Error reason
  | exception Net.Network.Node_down n -> Error (`Node_down n)
  | exception Net.Network.Rpc_timeout n -> Error (`Rpc_timeout n)

(* Phase 2, driven to completion by the coordinator.  Once the version
   decision is taken, aborting a participant is no longer an option: the
   decision is redriven ([Subtxn.commit] is idempotent, and refuses stale
   deliveries to a participant that rolled back) until every participant's
   commit record is durable or its node has died and lost it — a dead
   node's unforced records are gone and recovery presumes abort, so an
   uncommitted participant seen down is never redriven (its in-memory
   state does not survive the crash).  Returns the last failure seen. *)
let drive_commit t ~final_version ~last =
  let subs = sub_list t in
  let lost = ref [] and last = ref last in
  let lose sub reason =
    lost := sub :: !lost;
    last := reason
  in
  let pending sub = not (Subtxn.committed sub || List.memq sub !lost) in
  let rec go round =
    List.iter
      (fun sub ->
        if pending sub && not (Node_state.alive (Subtxn.node sub)) then
          lose sub (`Node_down (site sub)))
      subs;
    match List.filter pending subs with
    | [] -> ()
    | _ when round >= 40 -> ()
    | ps ->
        List.iter
          (fun sub ->
            if pending sub then
              match
                catch (fun () ->
                    at_sub t sub (fun sub ->
                        Subtxn.commit t.cs sub ~final_version))
              with
              | Ok () -> ()
              | Error (`Node_down m as r) when m = site sub -> lose sub r
              | Error r -> last := r)
          ps;
        if List.exists pending subs then begin
          Sim.Engine.sleep 2.0;
          go (round + 1)
        end
  in
  go 0;
  !last

(* Each participant releases its shared locks and reports the version it
   reached: the paper's prepared(V(T_i)). *)
let prepare_round t =
  List.map (fun s -> at_sub t s (Subtxn.prepare t.cs)) (sub_list t)

(* The whole lifecycle: run the body, prepare, decide [V(T)] — a failure up
   to here is a clean abort — then phase 2.  [deliver] is the executor's
   own first commit delivery (the tree's, down the plan edges); whatever it
   leaves pending is redriven from the root like any other. *)
let run cs ~root ?(prepared = prepare_round) ?deliver body =
  match create cs ~root with
  | None -> Root_down { root }
  | Some t -> (
      let abort reason =
        abort_all t reason;
        Aborted { txn_id = t.txn_id; reason }
      in
      match
        catch (fun () ->
            let value = body t in
            (value, decide_version t (prepared t)))
      with
      | Error reason -> abort reason
      | Ok (value, final_version) ->
          let first =
            match deliver with
            | Some deliver -> catch (fun () -> deliver t ~final_version)
            | None -> Ok ()
          in
          let last =
            match first with Ok () -> `Rpc_timeout t.root | Error r -> r
          in
          let reason = drive_commit t ~final_version ~last in
          let subs = sub_list t in
          let durable =
            List.filter_map
              (fun s ->
                if Subtxn.committed s then Some (site s, Subtxn.committed_at s)
                else None)
              subs
          in
          (* Decision in, force pending, node alive: it can still become
             durable on its own, so it is never grounds to rerun. *)
          let unresolved s =
            Subtxn.commit_submitted s
            && (not (Subtxn.committed s))
            && Node_state.alive (Subtxn.node s)
          in
          if List.length durable = List.length subs then begin
            finish_commit t ~final_version;
            Committed
              {
                value;
                txn_id = t.txn_id;
                final_version;
                started_at = t.started_at;
                finished_at = now cs;
                participants = durable;
              }
          end
          else if durable <> [] || List.exists unresolved subs then begin
            (* Some participants are past the point of no return while the
               rest died with their records unforced — the model's
               atomicity edge for a node dying mid-commit-round.  A rerun
               would apply the durable part twice. *)
            abort_all t reason;
            In_doubt
              { txn_id = t.txn_id; version = final_version; durable; reason }
          end
          else
            (* Nothing committed and nothing still can: stale deliveries
               are refused at the participant, so a rerun is clean. *)
            abort reason)

let map f = function
  | Committed c -> Committed (f c)
  | Aborted { txn_id; reason } -> Aborted { txn_id; reason }
  | In_doubt d -> In_doubt d
  | Root_down { root } -> Root_down { root }

let retry ?(max_attempts = 10) ?(backoff = 5.0)
    ?(retryable =
      function
      | Aborted { reason = `Deadlock | `Rpc_timeout _; _ } -> true | _ -> false)
    attempt =
  Sim.Retry.run ~max_attempts ~retryable ~backoff:(fun _ -> backoff) attempt
