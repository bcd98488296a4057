type 'v op =
  | Read of { node : int; key : string }
  | Write of { node : int; key : string; value : 'v }
  | Read_modify_write of { node : int; key : string; f : 'v option -> 'v }
  | Delete of { node : int; key : string }
  | Begin_at of int
  | Pause of float

type abort_reason = Subtxn.abort_reason

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (string * 'v option) list;
  started_at : float;
  finished_at : float;
  participants : (int * float) list;
      (* (node, local commit time): the instant the subtransaction released
         its locks there — what orders same-version conflicts *)
}

type 'info txn_outcome = 'info Txn_core.outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : abort_reason }
  | In_doubt of Txn_core.in_doubt
  | Root_down of { root : int }

type 'v outcome = 'v commit_info txn_outcome

(* The flat executor: the root drives every operation itself, shipping
   remote ones over the network.  Behaviourally this is an R* transaction
   whose children each execute one batch of work at a time; the concurrent
   tree model lives in {!Tree_txn}.  The lifecycle — registry, orphan
   guard, prepare, decision, redriven commit — is {!Txn_core}'s. *)
let run cs ~root ~ops =
  Txn_core.run cs ~root (fun t ->
      let reads = ref [] in
      let exec = function
        | Read { node = n; key } ->
            let v = Txn_core.at_node t n (fun sub -> Subtxn.read cs sub key) in
            reads := (key, v) :: !reads
        | Write { node = n; key; value } ->
            Txn_core.at_node t n (fun sub -> Subtxn.write cs sub key value)
        | Read_modify_write { node = n; key; f } ->
            Txn_core.at_node t n (fun sub -> Subtxn.read_modify_write cs sub key f)
        | Delete { node = n; key } ->
            Txn_core.at_node t n (fun sub -> Subtxn.delete cs sub key)
        | Begin_at n -> Txn_core.at_node t n (fun _sub -> ())
        | Pause d -> Sim.Engine.sleep d
      in
      ignore (Txn_core.sub t root : 'v Subtxn.t);
      List.iter exec ops;
      List.rev !reads)
  |> Txn_core.map (fun (c : _ Txn_core.commit) ->
         {
           txn_id = c.txn_id;
           final_version = c.final_version;
           reads = c.value;
           started_at = c.started_at;
           finished_at = c.finished_at;
           participants = c.participants;
         })
