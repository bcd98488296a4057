(** The one commit path of a distributed update transaction, under the
    flat executor ({!Update_exec}), the R*-style tree executor
    ({!Tree_txn}) and the session layer.

    {!run} owns the lifecycle: the subtransaction registry, the
    orphaned-dispatch guard, the prepare round, the [V(T)] decision with
    mismatch accounting, and a phase 2 that is {e redriven}, never rerun
    — a failed commit delivery is retried ([Subtxn.commit] is
    idempotent) until every commit record is durable or its node died and
    lost it.  Callers differ only in routing: flat executors and sessions
    ship each operation from the root ({!at_node}); the tree executor
    fans out along plan edges ({!register}) and delivers its first commit
    the same way. *)

type abort_reason = Subtxn.abort_reason

type 'v t

(** A commit round that failed after the decision with some participants
    durable, or still able to become durable, and the rest lost in a
    crash — the model's atomicity edge for a node dying mid-commit-round.
    A rerun would apply the durable part twice. *)
type in_doubt = {
  txn_id : int;
  version : int;  (** the decided [V(T)] *)
  durable : (int * float) list;  (** (site, local commit time) *)
  reason : abort_reason;
}

(** [Root_down] rejects a transaction whose root node was down: no id was
    allocated, nothing ran, and it counts as a rejection, not an abort. *)
type 'info outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : abort_reason }
      (** Nothing committed and nothing still can: the failure came before
          the decision, or every participant rolled back or died
          unforced.  Safe to rerun. *)
  | In_doubt of in_doubt
  | Root_down of { root : int }

type 'a commit = {
  value : 'a;  (** what the body returned *)
  txn_id : int;
  final_version : int;  (** [V(T)] *)
  started_at : float;
  finished_at : float;
  participants : (int * float) list;
      (** (site, local commit time) per subtransaction: when its locks
          were released, which orders same-version conflicts *)
}

val run :
  'v Cluster_state.t ->
  root:int ->
  ?prepared:('v t -> int list) ->
  ?deliver:('v t -> final_version:int -> unit) ->
  ('v t -> 'a) ->
  'a commit outcome
(** [run cs ~root body]: [body] performs the operations; [prepared]
    (default: a prepare round from the root) reports every [V(T_i)]; the
    maximum is decided as [V(T)]; phase 2 commits it.  A fatal failure
    ([Subtxn.Txn_abort], [Net.Network.Node_down] or [Rpc_timeout]) before
    the decision rolls every participant back.  [deliver] is an
    executor's own first commit delivery; whatever it leaves pending is
    redriven.  Must run inside a simulation process. *)

val map : ('a -> 'b) -> 'a outcome -> 'b outcome
(** Rewrite the [Committed] payload. *)

val retry :
  ?max_attempts:int ->
  ?backoff:float ->
  ?retryable:('info outcome -> bool) ->
  (unit -> 'info outcome) ->
  'info outcome * int
(** The workload adapters' policy over {!Sim.Retry.run}: up to
    [max_attempts] (default 10) attempts, [backoff] (default 5.0) apart,
    each a fresh transaction in the current update version.  By default
    only a clean [Deadlock] or [Rpc_timeout] abort is rerun.  Returns the
    last outcome and the attempts made. *)

val pp_reason : abort_reason -> string

(** {1 Inside the body} *)

val running : _ t -> bool
(** Whether the shared state cell is still [Running].  A lock denial
    ([Txn_abort `Deadlock] from {!Subtxn}) leaves it [Running] — the
    requester was refused but nothing was rolled back yet, so a savepoint
    rollback can still break the cycle.  The session layer's
    nested-scope handler keys on this. *)

val register : 'v t -> int -> carried:int -> 'v Subtxn.t
(** Start a subtransaction at node [n] carrying [carried], and enter it
    in the registry.  Runs the orphaned-dispatch guard: if the
    transaction aborted while this dispatch was in flight, the fresh
    subtransaction is rolled back on the spot (its counter must not
    leak) and [Subtxn.Txn_abort] is raised.  Must execute at node [n]
    (callers route through the network). *)

val sub : 'v t -> int -> 'v Subtxn.t
(** The subtransaction at node [n], registering it with the current
    carried version — the highest any registered subtransaction runs in
    — on first use (lazy dispatch). *)

val find_sub : 'v t -> int -> 'v Subtxn.t option

val sub_versions : 'v t -> int list
(** Current [V(T_i)] of every registered subtransaction. *)

val at_node : 'v t -> int -> ('v Subtxn.t -> 'a) -> 'a
(** Run [f] on the node's subtransaction (registering it on first use),
    at the node: directly when it is the root, through an RPC
    otherwise. *)

type 'v savepoint
(** A transaction-wide mark: one {!Subtxn.savepoint} per subtransaction
    registered when it was taken. *)

val savepoint : 'v t -> 'v savepoint
(** Mark every registered subtransaction (routing to each node).  Cheap:
    logs nothing; an untaken rollback leaves behavior bit-identical. *)

val rollback_to : 'v t -> 'v savepoint -> unit
(** Partial abort back to the mark: subtransactions that existed then roll
    back to their marks; ones dispatched since are aborted outright and
    removed from the registry.  An RPC failure while rolling back raises
    and so aborts the whole transaction. *)
