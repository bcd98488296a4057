(* In-memory spans recorded by the benchmark around each call it makes
   into a layer of the program.  Two clocks: DES calls are timed in
   virtual time, Engine.run and the mcore backend in wall time.  Spans are
   kept in memory and written out once, as Chrome trace-event JSON. *)

type clock = Virtual | Wall

type span = {
  id : int;
  name : string;
  layer : string;
  clock : clock;
  start : float;  (** virtual time units, or wall microseconds *)
  stop : float;
  parent : int;  (** -1 for a root span *)
  trace : int;  (** per-client (or per-domain) trace id *)
}

type t = {
  enabled : bool;
  id_base : int;
  mutable next : int;
  mutable spans : span list;
}

let create ?(id_base = 0) ~enabled () =
  { enabled; id_base; next = 0; spans = [] }

let off = create ~enabled:false ()
let enabled t = t.enabled

let fresh_id t =
  let id = t.id_base + t.next in
  t.next <- t.next + 1;
  id

let add t ~id ~name ~layer ~clock ~parent ~trace ~start ~stop =
  t.spans <- { id; name; layer; clock; start; stop; parent; trace } :: t.spans

(* Time [f] as a span under [parent]; the span is recorded whether [f]
   returns or raises.  Costs nothing but the branch when tracing is off. *)
let wrap t ~clock ~now ~name ~layer ~parent ~trace f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let start = now () in
    match f () with
    | r ->
        add t ~id ~name ~layer ~clock ~parent ~trace ~start ~stop:(now ());
        r
    | exception e ->
        add t ~id ~name ~layer ~clock ~parent ~trace ~start ~stop:(now ());
        raise e
  end

let spans t = List.rev t.spans

(* {1 Chrome trace-event export}

   One process per clock (pid 1 = virtual time, plotted as 1 vt = 1 us;
   pid 2 = wall time), one thread per trace id. *)
let chrome_json spans =
  let pid = function Virtual -> 1 | Wall -> 2 in
  let meta p name =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num (float_of_int p));
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.layer);
        ("ph", Json.Str "X");
        ("ts", Json.Num s.start);
        ("dur", Json.Num (Float.max 0.0 (s.stop -. s.start)));
        ("pid", Json.Num (float_of_int (pid s.clock)));
        ("tid", Json.Num (float_of_int s.trace));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
            ] );
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (meta 1 "virtual time (1 vt = 1 us)"
          :: meta 2 "wall time" :: List.map event spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]

(* {1 Self time}

   A span's self time is its duration minus the part of it covered by the
   union of its children's intervals. *)
let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

type self_row = { s_clock : clock; s_layer : string; s_spans : int; s_total : float; s_self : float }

let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = Float.max 0.0 (s.stop -. s.start) in
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = dur -. covered ~start:s.start ~stop:s.stop kids in
      let key = (s.clock, s.layer) in
      let n, tot, sf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows key)
      in
      Hashtbl.replace rows key (n + 1, tot +. dur, sf +. self))
    spans;
  Hashtbl.fold
    (fun (s_clock, s_layer) (s_spans, s_total, s_self) acc ->
      { s_clock; s_layer; s_spans; s_total; s_self } :: acc)
    rows []
  |> List.sort compare

let self_table rows =
  let clock_name = function Virtual -> "vt" | Wall -> "wall us" in
  let header =
    Printf.sprintf "%-8s %-8s %8s %16s %16s" "clock" "layer" "spans" "total" "self"
  in
  header
  :: List.map
       (fun r ->
         Printf.sprintf "%-8s %-8s %8d %16.1f %16.1f" (clock_name r.s_clock)
           r.s_layer r.s_spans r.s_total r.s_self)
       rows
