open Cluster_state

type 'v step =
  | Read of string
  | Write of string * 'v
  | Read_modify_write of string * ('v option -> 'v)
  | Delete of string
  | Pause of float

type 'v plan = { at : int; work : 'v step list; children : 'v plan list }

let rec plan_nodes plan =
  plan.at :: List.concat_map plan_nodes plan.children

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (int * string * 'v option) list;
  started_at : float;
  finished_at : float;
}

type 'info txn_outcome = 'info Txn_core.outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : Subtxn.abort_reason }
  | In_doubt of Txn_core.in_doubt
  | Root_down of { root : int }

type 'v outcome = 'v commit_info txn_outcome

let validate plan =
  let nodes = plan_nodes plan in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg "Tree_txn.run: plan visits a node twice"
      else Hashtbl.replace seen n ())
    nodes

(* The tree driver over {!Txn_core}: subtransactions fan out along plan
   edges and run concurrently; prepared versions travel bottom-up, the
   commit decision flows back down the same edges (participants it leaves
   pending are redriven from the root). *)
let run cs ~plan =
  validate plan;
  let root = plan.at in
  let reads = ref [] in
  let exec_step sub = function
    | Read key ->
        let v = Subtxn.read cs sub key in
        reads := (Node_state.id (Subtxn.node sub), key, v) :: !reads
    | Write (key, value) -> Subtxn.write cs sub key value
    | Read_modify_write (key, f) -> Subtxn.read_modify_write cs sub key f
    | Delete key -> Subtxn.delete cs sub key
    | Pause d -> Sim.Engine.sleep d
  in
  (* Run [body] at [p]'s node on behalf of its parent at [parent_node]. *)
  let at parent_node (p : 'v plan) body =
    if p.at = parent_node then body ()
    else Net.Network.call cs.net ~src:parent_node ~dst:p.at body
  in
  (* Execute the subtree rooted at [p], whose parent runs at [parent_node];
     returns the subtree's prepared version — the maximum of this
     subtransaction's version and its children's (the version number
     travelling up with the prepared message). *)
  let rec exec_subtree t parent_node (p : 'v plan) ~carried =
    at parent_node p (fun () ->
        let sub = Txn_core.register t p.at ~carried in
        List.iter (exec_step sub) p.work;
        let own = Subtxn.version sub in
        (* Children are dispatched concurrently, each carrying the version
           their parent had reached (§10 piggybacking uses it). *)
        let child_results =
          Fanout.all cs.engine
            (List.map
               (fun child () -> exec_subtree t p.at child ~carried:own)
               p.children)
        in
        let child_versions =
          List.map (function Ok v -> v | Error e -> raise e) child_results
        in
        (* Prepared: own work and all children done; release read locks. *)
        let prepared = Subtxn.prepare cs sub in
        List.fold_left max prepared child_versions)
  in
  let rec commit_subtree t parent_node (p : 'v plan) ~final_version =
    at parent_node p (fun () ->
        (match Txn_core.find_sub t p.at with
        | Some sub when not (Subtxn.finished sub) ->
            Subtxn.commit cs sub ~final_version
        | _ -> ());
        let results =
          Fanout.all cs.engine
            (List.map
               (fun child () -> commit_subtree t p.at child ~final_version)
               p.children)
        in
        List.iter (function Ok () -> () | Error e -> raise e) results)
  in
  (* The bottom-up maximum over the tree equals the registry's maximum:
     versions are final once prepared, so the shared decision logic sees
     the same [V(T)] the root received. *)
  Txn_core.run cs ~root ~prepared:Txn_core.sub_versions
    ~deliver:(fun t ~final_version -> commit_subtree t root plan ~final_version)
    (fun t ->
      let (_ : int) = exec_subtree t root plan ~carried:0 in
      List.rev !reads)
  |> Txn_core.map (fun (c : _ Txn_core.commit) ->
         {
           txn_id = c.txn_id;
           final_version = c.final_version;
           reads = c.value;
           started_at = c.started_at;
           finished_at = c.finished_at;
         })
