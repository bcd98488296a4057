let render ~header ~rows =
  let all = header :: rows in
  let columns = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let pad cell w = cell ^ String.make (max 0 (w - String.length cell)) ' ' in
  let rtrim s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do
      decr n
    done;
    String.sub s 0 !n
  in
  let line row =
    String.concat "  " (List.mapi (fun c cell -> pad cell (List.nth widths c)) row)
    |> rtrim
    |> fun s -> s ^ "\n"
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths) ^ "\n"
  in
  line header ^ rule ^ String.concat "" (List.map line rows)

(* ------------------------------------------------------------------ *)
(* Declared tables                                                     *)
(* ------------------------------------------------------------------ *)

type 'r column = string * ('r -> string)
type 'r table = { title : string; columns : 'r column list }

let s header cell = (header, cell)
let i header cell = (header, fun r -> string_of_int (cell r))
let f1 header cell = (header, fun r -> Printf.sprintf "%.1f" (cell r))
let f2 header cell = (header, fun r -> Printf.sprintf "%.2f" (cell r))
let yes_no header cell = (header, fun r -> if cell r then "yes" else "no")

let grid columns rows =
  render ~header:(List.map fst columns)
    ~rows:(List.map (fun r -> List.map (fun (_, cell) -> cell r) columns) rows)

let to_string t rows = Printf.sprintf "\n== %s ==\n%s" t.title (grid t.columns rows)
let print t rows =
  print_string (to_string t rows);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Experiment metrics sink                                             *)
(* ------------------------------------------------------------------ *)

type metrics_record = {
  experiment : string;
  label : string;
  metrics : Sim.Metrics.snapshot;
}

(* Experiments record from inside [Sim.Pool.map] workers, so the sink is
   mutex-protected; arrival order depends on domain scheduling, which is
   why [metrics_records] sorts. *)
let sink_lock = Mutex.create ()
let sink : metrics_record list ref = ref []

let record_metrics ~experiment ~label metrics =
  Mutex.lock sink_lock;
  sink := { experiment; label; metrics } :: !sink;
  Mutex.unlock sink_lock

let metrics_records () =
  Mutex.lock sink_lock;
  let records = !sink in
  Mutex.unlock sink_lock;
  List.stable_sort
    (fun a b ->
      match compare a.experiment b.experiment with
      | 0 -> compare a.label b.label
      | c -> c)
    records

let clear_metrics () =
  Mutex.lock sink_lock;
  sink := [];
  Mutex.unlock sink_lock

let metrics_to_json records =
  let one r =
    Printf.sprintf "{\"experiment\":%S,\"label\":%S,\"nodes\":%s}" r.experiment
      r.label
      (Sim.Metrics.to_json r.metrics)
  in
  "[" ^ String.concat "," (List.map one records) ^ "]"
