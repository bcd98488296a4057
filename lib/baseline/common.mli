(** Shared plumbing for the baseline protocols. *)

val fresh_txn_id : unit -> int
(** Domain-wide transaction id allocator for baselines (ids only need to be
    unique within one engine run, and every engine run executes on a single
    domain; a domain-local counter keeps parallel sweeps race-free). *)

val retry :
  max_attempts:int ->
  backoff:float ->
  (unit -> [ `Committed | `Aborted ]) ->
  Workload.Db_intf.update_outcome
(** Retry transient aborts with a fixed backoff, inside a process
    ({!Sim.Retry.run} with the baselines' policy). *)
