(* Domain-local: parallel sweep workers each allocate from their own
   counter, so concurrent engine runs never contend and a run observes
   the same strictly increasing id sequence regardless of how many other
   domains are active (ids only need uniqueness within one engine). *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_txn_id () =
  let c = Domain.DLS.get counter in
  incr c;
  !c

let retry ~max_attempts ~backoff attempt =
  match
    Sim.Retry.run ~max_attempts
      ~retryable:(fun outcome -> outcome = `Aborted)
      ~backoff:(fun _ -> backoff)
      attempt
  with
  | `Committed, _ -> Workload.Db_intf.Committed
  | `Aborted, _ -> Workload.Db_intf.Aborted
