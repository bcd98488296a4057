(** Plain-text tables for experiment reports. *)

val render : header:string list -> rows:string list list -> string
(** Aligned columns, a rule under the header. *)

(** {1 Declared tables}

    A table is declared once as its title and its columns; each column
    pairs a header with the cell it labels, computed from a row value. *)

type 'r column = string * ('r -> string)
type 'r table = { title : string; columns : 'r column list }

val s : string -> ('r -> string) -> 'r column
val i : string -> ('r -> int) -> 'r column

val f1 : string -> ('r -> float) -> 'r column
(** One decimal place. *)

val f2 : string -> ('r -> float) -> 'r column

val yes_no : string -> ('r -> bool) -> 'r column

val grid : 'r column list -> 'r list -> string
(** The rows rendered under the columns' headers, without a title. *)

val to_string : 'r table -> 'r list -> string
(** A blank line, the [== title ==] banner, then {!grid}. *)

val print : 'r table -> 'r list -> unit
(** {!to_string} to stdout, flushed. *)

(** {1 Experiment metrics sink}

    Each experiment run records the cluster's per-node
    {!Sim.Metrics.snapshot} here, tagged with the experiment and a
    configuration label.  Recording is safe from any domain (the
    experiments call it from inside [Sim.Pool.map] workers); the bench
    harness drains the sink into BENCH_micro.json.  Records come back
    sorted by (experiment, label), so the dump is identical at any
    AVA3_DOMAINS width. *)

type metrics_record = {
  experiment : string;  (** e.g. ["E10-faults"] *)
  label : string;  (** the configuration within the experiment *)
  metrics : Sim.Metrics.snapshot;
}

val record_metrics :
  experiment:string -> label:string -> Sim.Metrics.snapshot -> unit

val metrics_records : unit -> metrics_record list
(** Everything recorded since start-up (or {!clear_metrics}), sorted. *)

val clear_metrics : unit -> unit

val metrics_to_json : metrics_record list -> string
(** Compact JSON array of
    [{"experiment":..,"label":..,"nodes":<per-node metrics>}] objects,
    the node part as {!Sim.Metrics.to_json} renders it. *)
