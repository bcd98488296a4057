(** Experiment drivers for the paper's measurable claims (DESIGN.md E3–E15).

    Every sweep is a declared {!Report.table} — a title and
    [(header, cell)] columns — over the rows its runs return; {!suites}
    runs and prints them as the tables in EXPERIMENTS.md.  Each run is a
    self-contained simulation, deterministic under its seed.  The
    structured results below are the ones the tests read. *)

(** {1 E3 — §6.2 invariants under load} *)

type invariants_run = {
  probes : int;  (** invariant checks performed at random instants *)
  violations : int;
  max_versions_ever : int;
  advancements : int;
  commits : int;
  queries : int;
}

val invariants : ?seed:int64 -> nodes:int -> duration:float -> unit -> invariants_run

(** {1 E4 — §8 staleness vs advancement period} *)

type staleness_point = {
  period : float;
  eager : bool;
  mean_staleness : float;
  p95_staleness : float;
  max_staleness : float;
  advancements_done : int;
}

val staleness_sweep :
  ?seed:int64 ->
  ?periods:float list ->
  ?domains:int ->
  eager:bool ->
  unit ->
  staleness_point list
(** Each period runs in its own engine; the sweep fans out over [domains]
    workers (default {!Sim.Pool.default_domains}). *)

type staleness_bound = {
  long_txn_duration : float;
  publish_lag_plain : float;
      (** time from advancement start to queries seeing the new version,
          with a long update transaction running — base protocol *)
  publish_lag_eager : float;  (** same with the §8 eager hand-off *)
}

val staleness_bound : ?seed:int64 -> ?long_txn_duration:float -> unit -> staleness_bound

(** {1 E5 — protocol comparison on one workload} *)

type comparison_row = {
  protocol : string;
  committed : int;
  aborted : int;
  update_p95 : float;
  query_p95 : float;
  long_query_p95 : float;
  staleness_mean : float;
  max_versions : int;
  lock_wait_time : float;
  interference_metric : float;
      (** protocol-specific: lock wait (S2PL), commit delay (2V), 0 for
          version-based protocols *)
}

val comparison :
  ?seed:int64 -> ?duration:float -> ?domains:int -> unit -> comparison_row list

(** {1 E6 — moveToFuture frequency and cost} *)

type piggyback_run = {
  staged : int;  (** transactions engineered to straddle an advancement *)
  commit_mtf_plain : int;
  commit_mtf_piggyback : int;
}

val piggyback_targeted : ?seed:int64 -> unit -> piggyback_run
val piggyback_table : piggyback_run Report.table

(** {1 E7 — three vs four versions; synchronous advancement aborts} *)

type centralized_row = {
  variant : string;
  max_versions : int;
  steady_versions : int;
      (** resident versions sampled between advancements — AVA3: at most 2,
          four-version scheme: 3 *)
  advancement_mean_latency : float;
      (** time for one advancement to complete under long queries *)
  advancements : int;
}

val centralized : ?seed:int64 -> ?domains:int -> unit -> centralized_row list

type sync_aborts = {
  ava3_aborts_from_advancement : int;
  fourv_mismatch_aborts : int;
  advancements_during_run : int;
}

val sync_advancement_aborts : ?seed:int64 -> unit -> sync_aborts

(** {1 E8 — ablations and GC cost} *)

type ablation_row = {
  ablation : string;
  abl_commits : int;
  abl_messages : int;
  abl_latches : int;
  abl_mtf : int;
  abl_staleness : float;
}

val ablations :
  ?seed:int64 -> ?duration:float -> ?domains:int -> unit -> ablation_row list
(** The same workload under each optimisation flag (and all together). *)

type gc_cost_row = {
  gc_rule : string;
  store_items : int;
  gc_rounds : int;
  items_visited : int;
  full_scan_equivalent : int;
}

val gc_cost : ?seed:int64 -> ?domains:int -> unit -> gc_cost_row list
(** Phase-3 garbage-collection work under the paper's renumbering rule and
    the read-equivalent in-place rule, both version-indexed, against the
    naive full-scan cost. *)

val gc_cost_table : gc_cost_row Report.table

type tree_vs_flat_row = {
  fanout : int;
  flat_latency : float;
  tree_latency : float;
}

val tree_vs_flat : ?seed:int64 -> ?domains:int -> unit -> tree_vs_flat_row list
(** Transaction latency of the sequential flat executor vs the concurrent
    R*-style tree executor as the number of remote participants grows. *)

val tree_vs_flat_table : tree_vs_flat_row Report.table

(** {1 Registry} *)

val suites : (string * (unit -> unit)) list
(** Every sweep by name, in presentation order, smoke variants included:
    [invariants] (E3), [staleness] (E4), [comparison] (E5),
    [movetofuture] (E6), [centralized] (E7), [ablations] (E8),
    [scalability] (E9), [e12]/[e12smoke], [faults] (E10), [batching]
    (E11), [e13]/[e13smoke], [e14]/[e14smoke] and [e15]/[e15smoke].
    Running one prints its tables.  E14 and E15 raise [Failure] when their
    cross-row checks fail: update-stream counters that drift across
    access-path plans, program counts that drift across retry policies,
    an invariant probe that fires, or a run that does not drain. *)
