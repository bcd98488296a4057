(** Open-loop workload driver.

    Generates Poisson arrivals of update transactions and read-only queries
    over a partitioned, Zipf-skewed keyspace, plus (optionally) periodic
    long-running decision-support queries — the telephone-call /
    credit-card mix that motivates the paper.  The same driver runs against
    AVA3 and every baseline through {!Db_intf.DB}. *)

type spec = {
  duration : float;  (** virtual time to generate arrivals for *)
  update_rate : float;  (** mean update transactions per time unit *)
  query_rate : float;
  ops_per_update : int * int;  (** inclusive range, uniform *)
  update_write_fraction : float;  (** fraction of update ops that write *)
  reads_per_query : int * int;
  remote_fraction : float;
      (** probability an update op touches a node other than the root *)
  long_query_period : float;  (** 0 disables the long-query stream *)
  long_query_reads : int;
  node_theta : float;
      (** Zipf skew of transaction/query roots over the sites; [0.0]
          (default) keeps roots uniform and the RNG sequence unchanged.
          Because most ops stay local to their root, a positive theta
          concentrates traffic on a few hot partitions. *)
  storm_factor : float;
      (** arrival-rate multiplier during storms; [1.0] disables storms *)
  storm_period : float;
      (** storm cycle length: arrivals run at [rate *. storm_factor] during
          the first quarter of each period and at [rate] otherwise; [0.0]
          (default) disables storms and keeps the RNG sequence unchanged *)
  scan_fraction : float;
      (** fraction of query arrivals executed as secondary-index range
          scans ({!Db_intf.DB.submit_scan}); [0.0] (default) disables the
          analytical shapes and keeps the RNG sequence unchanged *)
  join_fraction : float;
      (** fraction of query arrivals executed as hash joins of two
          attribute ranges ({!Db_intf.DB.submit_join}) *)
}

val default_spec : spec

type report = {
  committed : int;
  aborted : int;
  queries_ok : int;  (** includes successful scans and joins *)
  queries_failed : int;
      (** includes scans/joins against databases with no secondary index *)
  scans_ok : int;
  joins_ok : int;
  update_latency : Histogram.t;
  query_latency : Histogram.t;
  long_query_latency : Histogram.t;
  scan_latency : Histogram.t;
  join_latency : Histogram.t;
  staleness : Histogram.t;  (** snapshot age observed by queries *)
  generated_duration : float;
}

val arrival_times :
  Sim.Rng.t ->
  rate:float ->
  duration:float ->
  ?storm_factor:float ->
  ?storm_period:float ->
  unit ->
  float list
(** Poisson arrival instants over [0, duration).  With [storm_period > 0]
    and [storm_factor <> 1] the rate is piecewise constant:
    [rate *. storm_factor] during the first quarter of each period, [rate]
    otherwise (generated exactly, via memorylessness at the boundaries).
    Exposed for experiment drivers that schedule their own transactions. *)

val run :
  (module Db_intf.DB with type t = 'db) ->
  'db ->
  engine:Sim.Engine.t ->
  rng:Sim.Rng.t ->
  keyspace:Keyspace.t ->
  spec:spec ->
  report
(** Schedule all arrivals, drive the engine until quiescence, and report.
    Any processes the caller scheduled beforehand (periodic advancement,
    crash injection) run concurrently. *)

val pp_report : Format.formatter -> report -> unit
