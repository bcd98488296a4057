type version = int

exception Version_bound_exceeded of { key : string; versions : version list }

type 'v body = Value of 'v | Tombstone
type 'v entry = { version : version; body : 'v body }

(* AVA3's central claim is "at most three live versions per item", so the
   item representation is three inline slots sorted by version, descending
   (slot 0 = newest).  Reads, writes and copy-forwards on a bounded store
   touch only these mutable fields: no list cells are allocated and no
   polymorphic comparisons run on the hot path.  Stores without a bound
   (the unbounded-MVCC baseline) spill entries older than slot 2 into
   [spill], also descending — the slots always hold the newest three.
   [Tombstone] doubles as the filler body of unused slots ([n] is the
   number of live slots). *)
type 'v item = {
  mutable n : int; (* live slots, 0..3 *)
  mutable v0 : version;
  mutable b0 : 'v body;
  mutable v1 : version;
  mutable b1 : 'v body;
  mutable v2 : version;
  mutable b2 : 'v body;
  mutable spill : 'v entry list; (* entries older than slot 2, descending *)
}

module String_map = Map.Make (String)

type 'v t = {
  (* Fields every read or write touches come first. *)
  items : (string, 'v item) Hashtbl.t;
  (* The renumbering rule as a view: an entry stored at or below
     [relabel_le] is reported at version [relabel_to].  [min_int] = off
     (always off under the in-place rule). *)
  mutable relabel_to : version;
  mutable relabel_le : version;
  (* Phase-3 watermark.  Every item has at most one entry stored at or
     below [collected] (the last [collect]), except the keys in [revisit],
     which the next {!gc} visits whatever their versions. *)
  mutable collected : version;
  (* Version index (the structure the paper defers to MPL92 for): which
     items have an entry stored at each version above [collected].  Keeps
     garbage collection proportional to the touched items instead of the
     whole store. *)
  by_version : (int, (string, unit) Hashtbl.t) Hashtbl.t;
  (* Derived structures (lib/index) register here to observe mutations;
     [None] (the common case) costs one load-and-branch per write. *)
  mutable listener : (string -> unit) option;
  mutable high_water : int;
  bound : int option;
  gc_renumber : bool;
  mutable key_order : 'v item String_map.t;
      (* ordered key index for range scans, kept in sync with [items] *)
  mutable revisit : string list;
  mutable gc_items_visited : int;
}

let create ?bound ?(gc_renumber = true) () =
  (match bound with
  | Some b when b < 1 -> invalid_arg "Store.create: bound must be >= 1"
  | _ -> ());
  {
    items = Hashtbl.create 1024;
    relabel_to = min_int;
    relabel_le = min_int;
    collected = min_int;
    by_version = Hashtbl.create 8;
    listener = None;
    high_water = 0;
    bound;
    gc_renumber;
    key_order = String_map.empty;
    revisit = [];
    gc_items_visited = 0;
  }

(* The version an entry stored at [v] reports. *)
let label t v = if v <= t.relabel_le then t.relabel_to else v

let set_listener t listener = t.listener <- listener

let notify t key =
  match t.listener with None -> () | Some f -> f key

let index_add t version key =
  if version > t.collected then begin
    let set =
      match Hashtbl.find_opt t.by_version version with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 64 in
          Hashtbl.replace t.by_version version s;
          s
    in
    Hashtbl.replace set key ()
  end

let index_remove t version key =
  match Hashtbl.find_opt t.by_version version with
  | None -> ()
  | Some s ->
      Hashtbl.remove s key;
      if Hashtbl.length s = 0 then Hashtbl.remove t.by_version version

(* Re-derive an item's index membership after its entries changed. *)
let reindex t key ~before ~after =
  List.iter
    (fun v -> if not (List.mem v after) then index_remove t v key)
    before;
  List.iter
    (fun v -> if not (List.mem v before) then index_add t v key)
    after

let bound t = t.bound

let find_item t key = Hashtbl.find_opt t.items key

(* {2 Slot/list conversions — used by the cold paths (GC, snapshots)} *)

let entries_desc item =
  let tail = if item.n > 2 then { version = item.v2; body = item.b2 } :: item.spill else item.spill in
  let tail = if item.n > 1 then { version = item.v1; body = item.b1 } :: tail else tail in
  if item.n > 0 then { version = item.v0; body = item.b0 } :: tail else tail

(* Refill the slots from a descending entry list. *)
let set_entries item desc =
  item.n <- 0;
  item.spill <- [];
  item.b0 <- Tombstone;
  item.b1 <- Tombstone;
  item.b2 <- Tombstone;
  match desc with
  | [] -> ()
  | e0 :: rest -> (
      item.v0 <- e0.version;
      item.b0 <- e0.body;
      item.n <- 1;
      match rest with
      | [] -> ()
      | e1 :: rest -> (
          item.v1 <- e1.version;
          item.b1 <- e1.body;
          item.n <- 2;
          match rest with
          | [] -> ()
          | e2 :: rest ->
              item.v2 <- e2.version;
              item.b2 <- e2.body;
              item.n <- 3;
              item.spill <- rest))

let live_count item = item.n + List.length item.spill

(* Stored versions, descending: what the version index records. *)
let versions_desc item = List.map (fun e -> e.version) (entries_desc item)

(* Reported versions, ascending. *)
let versions_of_item t item =
  List.rev_map (fun e -> label t e.version) (entries_desc item)

(* {2 The renumbering view}

   Under the paper's rule, Phase 3 renumbers every item whose newest entry
   is at or below [collect] up to [query].  The store keeps only the
   in-place rule's physical state and reports such entries at [query]
   instead.  That is safe because garbage collection leaves at most one
   entry at or below [collect] per item, never beside an entry in
   [(collect, query]], and updates land above [query]: a relabelled entry
   is always its item's oldest, and the slots stay descending by reported
   version.  A mutation that would break this first moves the entry to its
   reported version — one item, or every item on a write below the
   watermark. *)

(* Store the item's relabelled entry (if any) at the version it reports.
   The entry leaves [<= collected], where the version index does not
   reach, so it joins the index. *)
let materialize t key item =
  let move () =
    index_add t t.relabel_to key;
    t.relabel_to
  in
  if item.spill <> [] then
    item.spill <-
      List.map
        (fun e ->
          if e.version <= t.relabel_le then { e with version = move () } else e)
        item.spill
  else if item.n = 3 && item.v2 <= t.relabel_le then item.v2 <- move ()
  else if item.n = 2 && item.v1 <= t.relabel_le then item.v1 <- move ()
  else if item.n = 1 && item.v0 <= t.relabel_le then item.v0 <- move ()

(* Turn the view off by materializing every relabelled entry: a scan of the
   whole store, for the rare calls that need it. *)
let flatten t =
  if t.relabel_le <> min_int then begin
    Hashtbl.iter (materialize t) t.items;
    t.relabel_le <- min_int;
    t.relabel_to <- min_int
  end

(* {2 Index queries and reads} *)

let value_of = function Value value -> Some value | Tombstone -> None

(* Every protocol read is at or above [relabel_to], where a relabelled
   entry sits exactly where its stored version puts it: those reads compare
   stored versions.  Older versions go through the labels. *)

let rec spill_le spill v =
  match spill with
  | [] -> None
  | e :: rest -> if e.version <= v then value_of e.body else spill_le rest v

(* Slots are descending: the first slot reported at or below [v] wins. *)
let read_item t item v =
  if v >= t.relabel_to then
    if item.n > 0 && item.v0 <= v then value_of item.b0
    else if item.n > 1 && item.v1 <= v then value_of item.b1
    else if item.n > 2 && item.v2 <= v then value_of item.b2
    else spill_le item.spill v
  else
    match List.find_opt (fun e -> label t e.version <= v) (entries_desc item) with
    | Some e -> value_of e.body
    | None -> None

let read_le t key v =
  match find_item t key with None -> None | Some item -> read_item t item v

(* The body reported at exactly version [v]. *)
let find_body t item v =
  if v > t.relabel_to then
    if item.n > 0 && item.v0 = v then Some item.b0
    else if item.n > 1 && item.v1 = v then Some item.b1
    else if item.n > 2 && item.v2 = v then Some item.b2
    else
      match List.find_opt (fun e -> e.version = v) item.spill with
      | Some e -> Some e.body
      | None -> None
  else
    List.find_map
      (fun e -> if label t e.version = v then Some e.body else None)
      (entries_desc item)

let exists_in t key v =
  match find_item t key with
  | None -> false
  | Some item -> Option.is_some (find_body t item v)

let max_version t key =
  match find_item t key with
  | None -> None
  | Some item -> if item.n = 0 then None else Some (label t item.v0)

let versions_of t key =
  match find_item t key with None -> [] | Some item -> versions_of_item t item

let read_exact t key v =
  match find_item t key with
  | None -> None
  | Some item -> Option.bind (find_body t item v) value_of

let note_size t key item =
  let n = live_count item in
  if n > t.high_water then t.high_water <- n;
  match t.bound with
  | Some b when n > b ->
      raise (Version_bound_exceeded { key; versions = versions_of_item t item })
  | _ -> ()

(* Insert a new entry at [version] (known absent), keeping slots and spill
   descending.  The common case — a bounded item with a free slot — only
   shifts the inline fields. *)
let insert_new item version body =
  if item.n > 0 && version > item.v0 then begin
    (* Newest: shift everything down one position. *)
    if item.n > 2 then
      item.spill <- { version = item.v2; body = item.b2 } :: item.spill;
    if item.n > 1 then begin
      item.v2 <- item.v1;
      item.b2 <- item.b1
    end;
    item.v1 <- item.v0;
    item.b1 <- item.b0;
    item.v0 <- version;
    item.b0 <- body;
    if item.n < 3 then item.n <- item.n + 1
  end
  else if item.n > 1 && version > item.v1 then begin
    if item.n > 2 then
      item.spill <- { version = item.v2; body = item.b2 } :: item.spill;
    item.v2 <- item.v1;
    item.b2 <- item.b1;
    item.v1 <- version;
    item.b1 <- body;
    if item.n < 3 then item.n <- item.n + 1
  end
  else if item.n > 2 && version > item.v2 then begin
    item.spill <- { version = item.v2; body = item.b2 } :: item.spill;
    item.v2 <- version;
    item.b2 <- body
  end
  else if item.n < 3 then begin
    (* Free slot at the tail. *)
    (match item.n with
    | 0 ->
        item.v0 <- version;
        item.b0 <- body
    | 1 ->
        item.v1 <- version;
        item.b1 <- body
    | _ ->
        item.v2 <- version;
        item.b2 <- body);
    item.n <- item.n + 1
  end
  else begin
    (* Older than every slot of a full item: sorted insert into the
       spill (unbounded stores, or the entry that triggers the bound
       check right after). *)
    let rec insert = function
      | [] -> [ { version; body } ]
      | e :: rest when e.version < version -> { version; body } :: e :: rest
      | e :: rest -> e :: insert rest
    in
    item.spill <- insert item.spill
  end

(* Insert or replace the entry for [version].  Updates land above the
   watermark; anything at or below it first makes the item's stored
   versions equal its reported ones (see {!materialize}). *)
let put_entry t key item version body =
  if version <= t.relabel_to then
    if version <= t.relabel_le then flatten t else materialize t key item;
  if version <= t.collected then t.revisit <- key :: t.revisit;
  if item.n > 0 && item.v0 = version then item.b0 <- body
  else if item.n > 1 && item.v1 = version then item.b1 <- body
  else if item.n > 2 && item.v2 = version then item.b2 <- body
  else if List.exists (fun e -> e.version = version) item.spill then
    item.spill <-
      List.map
        (fun e -> if e.version = version then { version; body } else e)
        item.spill
  else insert_new item version body;
  index_add t version key;
  note_size t key item

let get_or_create_item t key =
  match find_item t key with
  | Some item -> item
  | None ->
      let item =
        {
          n = 0;
          v0 = 0;
          b0 = Tombstone;
          v1 = 0;
          b1 = Tombstone;
          v2 = 0;
          b2 = Tombstone;
          spill = [];
        }
      in
      Hashtbl.replace t.items key item;
      t.key_order <- String_map.add key item t.key_order;
      item

let remove_item t key =
  Hashtbl.remove t.items key;
  t.key_order <- String_map.remove key t.key_order

(* [note_size] inside [put_entry] may raise [Version_bound_exceeded] after
   the entry is already in place, so on the listener path the notification
   must still fire — otherwise a derived index would silently diverge from
   the store it mirrors. *)
let put_entry_notified t key item version body =
  match t.listener with
  | None -> put_entry t key item version body
  | Some f ->
      Fun.protect
        ~finally:(fun () -> f key)
        (fun () -> put_entry t key item version body)

let write t key v value =
  let item = get_or_create_item t key in
  put_entry_notified t key item v (Value value)

let copy_forward t key ~src ~dst =
  match find_item t key with
  | None -> raise Not_found
  | Some item -> (
      match find_body t item src with
      | None -> raise Not_found
      | Some body -> put_entry_notified t key item dst body)

let drop_item_if_empty t key item = if item.n = 0 then remove_item t key

let is_lone_tombstone item =
  match (item.n, item.spill, item.b0) with
  | 1, [], Tombstone -> true
  | _ -> false

(* An item whose only remaining entry is a tombstone can be removed outright
   (paper: once all earlier versions are gone, the deleted item itself may
   be removed). *)
let drop_lone_tombstone t key item =
  if is_lone_tombstone item then begin
    index_remove t item.v0 key;
    remove_item t key
  end
  else drop_item_if_empty t key item

(* The tombstone is retained even when it is the item's only entry: an
   uncommitted transaction may still hold an undo image or need to copy the
   entry forward in moveToFuture.  The paper removes fully-deleted items
   when their earlier versions are garbage-collected, which is what {!gc}
   does. *)
let delete t key v =
  let item = get_or_create_item t key in
  put_entry_notified t key item v Tombstone

let remove_version t key v =
  match find_item t key with
  | None -> ()
  | Some item ->
      (* Stored versions equal reported ones first: nothing then reports a
         version at or below the relabel watermark. *)
      if v <= t.relabel_to then materialize t key item;
      (if item.n > 0 && item.v0 = v then begin
         (* Shift newer slots up over the removed one. *)
         item.v0 <- item.v1;
         item.b0 <- item.b1;
         item.v1 <- item.v2;
         item.b1 <- item.b2;
         match item.spill with
         | e :: rest ->
             item.v2 <- e.version;
             item.b2 <- e.body;
             item.spill <- rest
         | [] ->
             item.b2 <- Tombstone;
             item.n <- item.n - 1
       end
       else if item.n > 1 && item.v1 = v then begin
         item.v1 <- item.v2;
         item.b1 <- item.b2;
         match item.spill with
         | e :: rest ->
             item.v2 <- e.version;
             item.b2 <- e.body;
             item.spill <- rest
         | [] ->
             item.b2 <- Tombstone;
             item.n <- item.n - 1
       end
       else if item.n > 2 && item.v2 = v then begin
         match item.spill with
         | e :: rest ->
             item.v2 <- e.version;
             item.b2 <- e.body;
             item.spill <- rest
         | [] ->
             item.b2 <- Tombstone;
             item.n <- item.n - 1
       end
       else item.spill <- List.filter (fun e -> e.version <> v) item.spill);
      index_remove t v key;
      drop_item_if_empty t key item;
      (* A lone tombstone below the watermark sits in no version the next
         collection scans; queue it so that collection still removes it. *)
      if is_lone_tombstone item && item.v0 <= t.collected then
        t.revisit <- key :: t.revisit;
      notify t key

(* Phase 3, in O(items with an entry in (previous collect, query]).  One
   physical rule — keep an item's newest entry at or below [collect] unless
   an entry in [(collect, query]] supersedes it, drop the rest — and the
   renumbering rule on top as a relabel of what survives at or below
   [collect].  Items with nothing stored in the scanned range are already
   in that shape, and their reported versions move with the watermark. *)
let gc t ~collect ~query =
  if collect < t.collected then invalid_arg "Store.gc: collect went backwards";
  (* The relabel view only moves forward; a collection behind it stores
     the view's entries at the versions they report first. *)
  if collect < t.relabel_to then flatten t;
  (* Which items each rule's eager pass would change: the renumbering rule
     touches items with an entry at or below [collect]; the in-place rule
     also sweeps lone tombstones at or below [query]. *)
  let reach = if t.gc_renumber then collect else query in
  let process key item =
    t.gc_items_visited <- t.gc_items_visited + 1;
    let entries = entries_desc item in
    if List.exists (fun e -> e.version <= reach) entries then begin
      (* A reader at [query] resolves to the newest entry at or below it;
         the entries at or below [collect] are garbage iff such an entry
         exists strictly above [collect].  Checking for an incarnation at
         exactly [query] is not enough: when [query] has skipped versions
         (a lagging collector catching up), an entry strictly between
         [collect] and [query] protects the item. *)
      let superseded =
        List.exists (fun e -> e.version > collect && e.version <= query) entries
      in
      let kept =
        match List.find_opt (fun e -> e.version <= collect) entries with
        | None -> entries
        | Some newest ->
            List.filter
              (fun e ->
                e.version > collect
                || ((not superseded) && e.version = newest.version))
              entries
      in
      (* Only a real change reaches the listener. *)
      if List.compare_lengths kept entries < 0 || is_lone_tombstone item then begin
        set_entries item kept;
        reindex t key
          ~before:(List.map (fun e -> e.version) entries)
          ~after:(versions_desc item);
        drop_lone_tombstone t key item;
        notify t key
      end
    end
  in
  let keys = Hashtbl.create 64 in
  Hashtbl.iter
    (fun v set ->
      if v <= query then Hashtbl.iter (fun k () -> Hashtbl.replace keys k ()) set)
    t.by_version;
  List.iter (fun k -> Hashtbl.replace keys k ()) t.revisit;
  t.revisit <- [];
  Hashtbl.iter
    (fun k () ->
      match find_item t k with None -> () | Some item -> process k item)
    keys;
  (* What survives at or below [collect] is one entry per item, which no
     later collection needs to find by version. *)
  t.collected <- collect;
  Hashtbl.filter_map_inplace
    (fun v set -> if v <= collect then None else Some set)
    t.by_version;
  if t.gc_renumber then begin
    t.relabel_le <- collect;
    t.relabel_to <- query
  end

let prune_below t ~keep =
  (* [keep] is compared with stored versions below. *)
  flatten t;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.items [] in
  List.iter
    (fun key ->
      match find_item t key with
      | None -> ()
      | Some item ->
          let entries = entries_desc item in
          let before = List.map (fun e -> e.version) entries in
          (match List.find_opt (fun e -> e.version <= keep) entries with
          | None -> ()
          | Some newest_visible ->
              set_entries item
                (List.filter
                   (fun e -> e.version >= newest_visible.version)
                   entries));
          reindex t key ~before ~after:(versions_desc item);
          drop_lone_tombstone t key item;
          notify t key)
    keys

type 'v snapshot = (string * (version * 'v option) list) list

let snapshot t =
  Hashtbl.fold
    (fun key item acc ->
      let entries =
        List.rev_map
          (fun e -> (label t e.version, value_of e.body))
          (entries_desc item)
      in
      (key, entries) :: acc)
    t.items []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let restore ?bound ?gc_renumber snap =
  let t = create ?bound ?gc_renumber () in
  List.iter
    (fun (key, entries) ->
      List.iter
        (fun (v, value) ->
          match value with
          | Some value -> write t key v value
          | None -> delete t key v)
        entries)
    snap;
  t

let snapshot_items snap = snap

let snapshot_of_items items =
  List.sort (fun (a, _) (b, _) -> String.compare a b) items

(* Keys of an ascending fold, with their value as of [version]; items
   deleted or absent as of that version are skipped.  Builds the list
   descending; callers reverse it. *)
let visible_rev t version key item acc =
  match read_item t item version with
  | Some value -> (key, value) :: acc
  | None -> acc

(* Range scan at a version: keys in [lo, hi] (inclusive), ascending. *)
let range t ~lo ~hi version =
  if hi < lo then []
  else begin
    (* Split twice to isolate [lo, hi]. *)
    let _, lo_item, ge_lo = String_map.split lo t.key_order in
    let le_hi, hi_item, _ = String_map.split hi ge_lo in
    let acc =
      match lo_item with Some item -> visible_rev t version lo item [] | None -> []
    in
    let acc = String_map.fold (visible_rev t version) le_hi acc in
    let acc =
      match hi_item with Some item -> visible_rev t version hi item acc | None -> acc
    in
    List.rev acc
  end

(* Full ordered scan at a version — the reference plan an index probe must
   match byte-for-byte (lib/index).  O(items) by construction. *)
let scan_all t version =
  List.rev (String_map.fold (visible_rev t version) t.key_order [])

let item_count t = Hashtbl.length t.items

let iter f t =
  Hashtbl.iter
    (fun key item ->
      let summary =
        List.rev_map
          (fun e ->
            ( label t e.version,
              match e.body with Value _ -> `Value | Tombstone -> `Tombstone ))
          (entries_desc item)
      in
      f key summary)
    t.items

let live_versions t key =
  match find_item t key with None -> 0 | Some item -> live_count item

let max_live_versions_now t =
  Hashtbl.fold (fun _ item acc -> max acc (live_count item)) t.items 0

let high_water_versions t = t.high_water
let gc_items_visited t = t.gc_items_visited

(* The version index answers above the watermark; at or below it, and for
   the version relabelled entries report, count the items. *)
let items_in_version t v =
  if v > t.collected && v <> t.relabel_to then
    match Hashtbl.find_opt t.by_version v with
    | None -> 0
    | Some s -> Hashtbl.length s
  else
    Hashtbl.fold
      (fun _ item n ->
        if List.exists (fun e -> label t e.version = v) (entries_desc item) then n + 1
        else n)
      t.items 0

let version_histogram t =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ item ->
      let k = live_count item in
      let cur = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
      Hashtbl.replace tbl k (cur + 1))
    t.items;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
