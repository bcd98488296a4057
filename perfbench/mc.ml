(* The [mcore] workload: real OCaml domains over [Mcore.Backend], each a
   closed loop of Zipf-hot pair updates and two-site pair queries, with an
   occasional full audit; domain 0 also advances versions.

   [run_update] takes a static op list, so an update is a blind write of
   both accounts of a pair that keeps the pair's sum at its constant; every
   query and audit checks that constant. *)

let sites = 4
let accounts = 512  (* per site *)
let pairs = sites * accounts / 2
let theta = 0.9
let adv_period_us = 20_000.0  (* domain 0 starts an advancement this often *)
let audit_every = 20_000  (* one full audit per this many operations, on average *)
let update_share = 0.4

(* Pair [j] lives on sites [j mod sites] and [(j + 1) mod sites]. *)
let site_a j = j mod sites
let site_b j = (j + 1) mod sites
let key_a j = Printf.sprintf "p%04d-a" j
let key_b j = Printf.sprintf "p%04d-b" j
let constant j = 1000 + j

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1000.0

type setup = {
  backend : int Mcore.Backend.t;
  keys_a : string array;
  keys_b : string array;
}

let setup () =
  let backend : int Mcore.Backend.t = Mcore.Backend.create ~sites () in
  let keys_a = Array.init pairs key_a and keys_b = Array.init pairs key_b in
  for s = 0 to sites - 1 do
    let items = ref [] in
    for j = pairs - 1 downto 0 do
      let c = constant j in
      if site_a j = s then items := (keys_a.(j), c / 2) :: !items;
      if site_b j = s then items := (keys_b.(j), c - (c / 2)) :: !items
    done;
    Mcore.Backend.load backend ~site:s !items
  done;
  { backend; keys_a; keys_b }

(* Per-domain state: private RNG stream, latency samples, counters.  Each
   domain allocates its own, so two domains' hot fields never share a
   cache line; a repetition starts a fresh one from the seed, so every
   repetition replays the same operation stream. *)
type dom = {
  d : int;
  rng : Sim.Rng.t;
  upd : Workload.Histogram.t;  (** update latencies, us *)
  qry : Workload.Histogram.t;  (** query latencies, us *)
  adv : Workload.Histogram.t;  (** completed advancement latencies, us *)
  stale : Workload.Histogram.t;  (** query staleness, us *)
  mutable committed : int;
  mutable aborted : int;
  mutable retries : int;
  mutable queries : int;
  mutable audits : int;
  mutable ops : int;
  mutable violations : string list;
  tracer : Spans.t;
}

let new_dom ~seed ~traced d =
  {
    d;
    rng = Sim.Rng.fork_named (Sim.Rng.create (Int64.of_int seed)) (Printf.sprintf "domain-%d" d);
    upd = Workload.Histogram.create ();
    qry = Workload.Histogram.create ();
    adv = Workload.Histogram.create ();
    stale = Workload.Histogram.create ();
    committed = 0;
    aborted = 0;
    retries = 0;
    queries = 0;
    audits = 0;
    ops = 0;
    violations = [];
    tracer = Spans.create ~id_base:(d lsl 40) ~enabled:traced ();
  }

let all_reads st =
  List.concat
    (List.init pairs (fun j -> [ (site_a j, st.keys_a.(j)); (site_b j, st.keys_b.(j)) ]))

(* Every pair read at one pin must sum to its constant; returns the
   violations. *)
let check_pairs ~what values =
  let rec go j acc = function
    | (_, _, Some a) :: (_, _, Some b) :: rest ->
        go (j + 1)
          (if a + b = constant j then acc
           else Printf.sprintf "%s: pair %d sums to %d, expected %d" what j (a + b) (constant j) :: acc)
          rest
    | [] -> acc
    | _ -> Printf.sprintf "%s: missing account in pair %d" what j :: acc
  in
  go 0 [] values

(* Staleness of a query: its start time minus the time its pinned version
   stopped changing ([frozen], upper bound: when domain 0's round
   returned).  A version whose freeze domain 0 has not yet recorded froze
   after the query started: staleness 0. *)
let staleness frozen ~start v =
  if v < Array.length frozen && not (Float.is_nan frozen.(v)) then
    Float.max 0.0 (start -. frozen.(v))
  else 0.0

let run_domain st ~zipf ~frozen ~stop dom () =
  let w = Mcore.Backend.worker st.backend in
  let tr = dom.tracer in
  let trace = dom.d in
  let span name f =
    Spans.wrap tr ~clock:Spans.Wall ~now:now_us ~name ~layer:"mcore" ~parent:(-1) ~trace f
  in
  let next_adv = ref (now_us () +. adv_period_us) in
  while not (Atomic.get stop) do
    dom.ops <- dom.ops + 1;
    if dom.d = 0 && now_us () >= !next_adv then begin
      let t0 = now_us () in
      next_adv := t0 +. adv_period_us;
      match span "Backend.advance" (fun () -> Mcore.Backend.advance w ~coordinator:0) with
      | `Completed newu ->
          let t1 = now_us () in
          Workload.Histogram.add dom.adv (t1 -. t0);
          (* Version [newu - 1] stopped changing within this round. *)
          if newu - 1 < Array.length frozen then frozen.(newu - 1) <- t1
      | `Busy -> ()
    end
    else if Sim.Rng.int dom.rng audit_every = 0 then begin
      let r = span "Backend.run_query(audit)" (fun () ->
          Mcore.Backend.run_query w ~root:0 ~reads:(all_reads st)) in
      dom.audits <- dom.audits + 1;
      dom.violations <- check_pairs ~what:"audit" r.Mcore.Backend.values @ dom.violations
    end
    else begin
      let j = Workload.Zipf.sample zipf dom.rng in
      let sa = site_a j and sb = site_b j in
      if Sim.Rng.chance dom.rng update_share then begin
        let c = constant j in
        let x = Sim.Rng.int dom.rng c in
        let ops =
          [ (sa, Mcore.Backend.Write (st.keys_a.(j), x)); (sb, Mcore.Backend.Write (st.keys_b.(j), c - x)) ]
        in
        let t0 = now_us () in
        match span "Backend.run_update" (fun () -> Mcore.Backend.run_update w ~root:sa ~ops) with
        | Mcore.Backend.Committed ci ->
            Workload.Histogram.add dom.upd (now_us () -. t0);
            dom.committed <- dom.committed + 1;
            dom.retries <- dom.retries + ci.Mcore.Backend.retries
        | Mcore.Backend.Aborted { retries; _ } ->
            dom.aborted <- dom.aborted + 1;
            dom.retries <- dom.retries + retries
      end
      else begin
        let t0 = now_us () in
        let r =
          span "Backend.run_query" (fun () ->
              Mcore.Backend.run_query w ~root:sa
                ~reads:[ (sa, st.keys_a.(j)); (sb, st.keys_b.(j)) ])
        in
        Workload.Histogram.add dom.qry (now_us () -. t0);
        Workload.Histogram.add dom.stale (staleness frozen ~start:t0 r.Mcore.Backend.q_version);
        dom.queries <- dom.queries + 1;
        match r.Mcore.Backend.values with
        | [ (_, _, Some a); (_, _, Some b) ] when a + b = constant j -> ()
        | _ ->
            dom.violations <-
              Printf.sprintf "query: pair %d does not sum to %d" j (constant j) :: dom.violations
      end
    end
  done

(* One repetition: spawn [domains] domains, release them together, let
   them run for [seconds], stop and join.  Returns the wall seconds of the
   parallel section and the domains' states. *)
let run_rep st ~zipf ~seed ~traced ~domains ~seconds =
  let frozen = Array.make 100_000 nan in
  let stop = Atomic.make false in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let handles =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            let dom = new_dom ~seed ~traced d in
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            run_domain st ~zipf ~frozen ~stop dom ();
            dom))
  in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  let t0 = now_us () in
  frozen.(0) <- t0;
  Atomic.set go true;
  (* One sleep for the whole section, so the main domain does not wake
     and compete with the workers. *)
  let deadline = t0 +. (seconds *. 1e6) in
  while now_us () < deadline do
    Unix.sleepf ((deadline -. now_us ()) /. 1e6)
  done;
  Atomic.set stop true;
  let doms = Array.map Domain.join handles in
  let wall = (now_us () -. t0) /. 1e6 in
  (wall, doms)

let max_versions st =
  List.fold_left max 0
    (List.init sites (fun s ->
         Mcore.Mstore.high_water_versions (Mcore.Backend.store (Mcore.Backend.site st.backend s))))

(* After the run: a final audit, the quiescence audit, the version bound. *)
let final_checks st =
  let w = Mcore.Backend.worker st.backend in
  let r = Mcore.Backend.run_query w ~root:0 ~reads:(all_reads st) in
  check_pairs ~what:"final audit" r.Mcore.Backend.values
  @ List.map (( ^ ) "quiescence: ") (Mcore.Backend.check_quiescent st.backend)
  @
  let mv = max_versions st in
  if mv > 3 then [ Printf.sprintf "an item held %d versions (at most 3 allowed)" mv ] else []
