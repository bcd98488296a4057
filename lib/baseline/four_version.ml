type t = { db : int Ava3.Cluster.t; mutable mismatch_aborts : int }

let name = "four-version-sync"

let create ~engine ?(scheme = Wal.Scheme.No_undo) ?latency
    ?(read_service_time = 0.1) ?(write_service_time = 0.2)
    ?(advancement_period = 100.0) ?(advancement_until = 10_000.0) ~nodes () =
  let config =
    {
      Ava3.Config.default with
      scheme;
      abort_on_version_mismatch = true;
      retain_extra_version = true;
      read_service_time;
      write_service_time;
    }
  in
  let db = Ava3.Cluster.create ~engine ~config ?latency ~nodes () in
  if advancement_period > 0.0 then
    Ava3.Cluster.start_periodic_advancement db ~coordinator:0
      ~period:advancement_period ~until:advancement_until;
  { db; mismatch_aborts = 0 }

let cluster t = t.db
let load t ~node items = Ava3.Cluster.load t.db ~node items
let node_count t = Ava3.Cluster.node_count t.db

let to_op = function
  | Workload.Db_intf.Read { node; key } -> Ava3.Update_exec.Read { node; key }
  | Workload.Db_intf.Write { node; key; value } ->
      Ava3.Update_exec.Write { node; key; value }

(* Mismatch aborts restart with the current update version, so a retry
   usually succeeds — but the abort itself is the interference AVA3 avoids. *)
let submit_update t ~root ~ops =
  let ops = List.map to_op ops in
  let attempt () =
    let outcome = Ava3.Cluster.run_update t.db ~root ~ops in
    (match outcome with
    | Ava3.Update_exec.Aborted { reason = `Version_mismatch; _ } ->
        t.mismatch_aborts <- t.mismatch_aborts + 1
    | _ -> ());
    outcome
  in
  match
    Ava3.Txn_core.retry
      ~retryable:(function Ava3.Update_exec.Aborted _ -> true | _ -> false)
      attempt
  with
  | Ava3.Update_exec.Committed _, _ -> Workload.Db_intf.Committed
  | _ -> Workload.Db_intf.Aborted

let submit_query t ~root ~reads =
  match Ava3.Cluster.run_query t.db ~root ~reads with
  | result ->
      Some
        {
          Workload.Db_intf.q_latency =
            result.Ava3.Query_exec.finished_at -. result.Ava3.Query_exec.started_at;
          q_staleness = result.Ava3.Query_exec.staleness;
        }
  | exception Net.Network.Node_down _ -> None
  | exception Net.Network.Rpc_timeout _ -> None

let mismatch_aborts t = t.mismatch_aborts

let max_versions_ever t = (Ava3.Cluster.stats t.db).Ava3.Cluster.max_versions_ever
let metrics_snapshot t = Some (Ava3.Cluster.metrics_snapshot t.db)

let extra_stats t =
  let s = Ava3.Cluster.stats t.db in
  [
    ("commits", float_of_int s.Ava3.Cluster.commits);
    ("aborts", float_of_int s.Ava3.Cluster.aborts);
    ("mismatch_aborts", float_of_int t.mismatch_aborts);
    ("advancements", float_of_int s.Ava3.Cluster.advancements);
    ("lock_waits", float_of_int s.Ava3.Cluster.lock_waits);
    ("deadlocks", float_of_int s.Ava3.Cluster.deadlocks);
  ]

(* No secondary index in this baseline: the driver's scan/join streams
   count as failed queries here. *)
let submit_scan _ ~root:_ ~range:_ = None
let submit_join _ ~root:_ ~build:_ ~probe:_ = None
