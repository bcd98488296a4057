(* The three discrete-event workloads: simulated closed-loop sessions over
   an AVA3 cluster, driven through [Session] and [Ava3.Cluster] only. *)

type spec = {
  name : string;
  partitions : int;
  accounts : int;  (** per partition *)
  writers : int;  (** transfer sessions *)
  writer_ops : int;  (** operations per transfer session *)
  think : float;  (** virtual time a transfer session waits between operations *)
  readers : int;  (** analytic reader sessions *)
  reader_ops : int;
  theta : float;  (** Zipf skew of transfer accounts; 0 is uniform *)
  cross : float;  (** share of transfers that cross partitions *)
  scoped : float;  (** share of transfers run inside a savepoint scope *)
  point_queries : float;  (** share of a transfer session's operations that are point queries *)
  index : bool;  (** secondary index on the balance bucket *)
  faults : int;  (** nemesis crashes (and as many partitions, half as many slow links) *)
  client_timeout : float;
      (** virtual time a client waits for an answer before it gives up on
          the operation and moves on; [infinity] waits forever *)
  adv_period : float;
  config : Ava3.Config.t;
  latency : Net.Latency.t;
}

let base_config =
  {
    Ava3.Config.default with
    disk_force_latency = 1.0;
    group_commit_window = 0.5;
    max_retries = 30;
    retry_backoff_base = 1.0;
  }

let oltp =
  {
    name = "oltp";
    partitions = 8;
    accounts = 512;
    writers = 32;
    writer_ops = 320;
    think = 0.0;
    readers = 0;
    reader_ops = 0;
    theta = 0.9;
    cross = 0.3;
    scoped = 0.25;
    point_queries = 0.1;
    index = false;
    faults = 0;
    client_timeout = infinity;
    adv_period = 50.0;
    config = base_config;
    latency = Net.Latency.Exponential { mean = 1.0; floor = 0.5 };
  }

let analytics =
  {
    name = "analytics";
    partitions = 4;
    accounts = 4096;
    writers = 8;
    writer_ops = 100;
    think = 4.0;
    readers = 16;
    reader_ops = 30;
    theta = 0.0;
    cross = 0.3;
    scoped = 0.0;
    point_queries = 0.0;
    index = true;
    faults = 0;
    client_timeout = infinity;
    adv_period = 80.0;
    config = { base_config with read_service_time = 0.01 };
    latency = Net.Latency.Exponential { mean = 1.0; floor = 0.5 };
  }

let failover =
  {
    oltp with
    name = "failover";
    partitions = 4;
    accounts = 256;
    writers = 16;
    writer_ops = 240;
    faults = 12;
    client_timeout = 600.0;
    config =
      {
        base_config with
        replicas = 1;
        rpc_timeout = 20.0;
        replica_catchup_timeout = 15.0;
        advancement_retry = 30.0;
        retry_backoff_base = 2.0;
      };
  }

let specs = [ oltp; analytics; failover ]

(* An eighth of a workload, same shape, for tests. *)
let shrink spec =
  {
    spec with
    accounts = max 16 (spec.accounts / 8);
    writers = max 2 (spec.writers / 8);
    writer_ops = max 8 (spec.writer_ops / 8);
    readers = (if spec.readers = 0 then 0 else max 2 (spec.readers / 8));
    reader_ops = max 4 (spec.reader_ops / 8);
    faults = (if spec.faults = 0 then 0 else max 2 (spec.faults / 8));
  }

(* {1 One repetition} *)

type obs = {
  mutable commit_vt : float list;
  mutable query_vt : float list;
  mutable staleness : float list;
  mutable committed : int;
  mutable txn_failed : int;
  mutable txn_attempted : int;
  mutable attempts : int;  (** session attempts over every resolved transfer *)
  mutable partial : int;  (** transfers that failed with durable participants *)
  mutable queries_ok : int;
  mutable query_failed : int;
  mutable query_attempted : int;
  mutable index_rows : int;  (** rows returned by index selects and joins *)
  mutable unanswered : int;  (** operations whose call has not returned *)
  mutable running : int;  (** clients that have not finished their operations *)
  mutable violations : string list;
  mutable vt_end : float;
}

let new_obs () =
  {
    commit_vt = [];
    query_vt = [];
    staleness = [];
    committed = 0;
    txn_failed = 0;
    txn_attempted = 0;
    attempts = 0;
    partial = 0;
    queries_ok = 0;
    query_failed = 0;
    query_attempted = 0;
    index_rows = 0;
    unanswered = 0;
    running = 0;
    violations = [];
    vt_end = 0.0;
  }

let violation o fmt = Printf.ksprintf (fun s -> o.violations <- s :: o.violations) fmt

(* Balance bucket, zero-padded so string order is numeric order. *)
let attr v = Printf.sprintf "%04d" (max 0 (min 9999 (v / 10)))

type env = {
  spec : spec;
  seed : int;
  engine : Sim.Engine.t;
  db : int Ava3.Cluster.t;
  keys : string array array;
  expected : int array array;  (** balance each account must end with *)
  total : int;
  obs : obs;
  tracer : Spans.t;
  heal_at : float;  (** virtual time by which every injected fault has healed *)
}

let key p i = Printf.sprintf "a%d-%05d" p i
let initial_balance spec p i = 1000 + ((((p * spec.accounts) + i) * 7919) mod 9000)

let setup spec ~seed ~tracer =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
  let index = if spec.index then Some attr else None in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config:spec.config ~latency:spec.latency ?index
      ~nodes:spec.partitions ()
  in
  let keys = Array.init spec.partitions (fun p -> Array.init spec.accounts (key p)) in
  let expected =
    Array.init spec.partitions (fun p ->
        Array.init spec.accounts (initial_balance spec p))
  in
  Array.iteri
    (fun p ks ->
      Ava3.Cluster.load db ~node:p
        (Array.to_list (Array.mapi (fun i k -> (k, expected.(p).(i))) ks)))
    keys;
  let total = Array.fold_left (Array.fold_left ( + )) 0 expected in
  let root = Sim.Engine.rng engine in
  let heal_at =
    if spec.faults = 0 then 0.0
    else begin
      (* Faults are spread over roughly the length of the run (each
         operation takes some 15-20 vt) and hit the original primaries;
         each heals before [horizon]. *)
      let horizon = float_of_int spec.writer_ops *. 14.0 in
      let plan =
        Net.Nemesis.random_plan
          ~rng:(Sim.Rng.fork_named root "nemesis")
          ~nodes:spec.partitions ~horizon ~crashes:spec.faults
          ~partitions:spec.faults ~slow_links:(spec.faults / 2)
          ~min_duration:15.0 ~max_duration:45.0 ~extra_latency:3.0 ()
      in
      Net.Nemesis.install ~engine (Ava3.Cluster.nemesis_target db) plan;
      horizon
    end
  in
  {
    spec;
    seed;
    engine;
    db;
    keys;
    expected;
    total;
    obs = new_obs ();
    tracer;
    heal_at;
  }

let vnow env () = Sim.Engine.now env.engine

(* Each client's session draws its retry jitter from a stream of its own,
   derived from the run's seed. *)
let session_seed env client = Int64.of_int ((env.seed * 4096) + client)

let span env ~name ~layer ~parent ~trace f =
  Spans.wrap env.tracer ~clock:Spans.Virtual ~now:(vnow env) ~name ~layer ~parent
    ~trace f

(* A client gives up on an operation that has not answered within the
   workload's [client_timeout]: the call runs in its own process, and the
   client moves on when either the call returns or the deadline passes.
   An operation still unanswered when the run ends is counted as failed.
   The call does its own bookkeeping, so one that answers late still
   counts. *)
let with_deadline env call =
  let o = env.obs in
  if env.spec.client_timeout = infinity then call ()
  else begin
    o.unanswered <- o.unanswered + 1;
    let settled = ref false in
    Sim.Engine.suspend (fun resume ->
        let settle () =
          if not !settled then begin
            settled := true;
            resume ()
          end
        in
        Sim.Engine.spawn env.engine (fun () ->
            call ();
            o.unanswered <- o.unanswered - 1;
            settle ());
        Sim.Engine.schedule env.engine ~delay:env.spec.client_timeout settle)
  end

(* {2 Transfer sessions} *)

let transfer env s ~parent ~trace ~src:(ps, is) ~dst:(pd, id) ~amt ~scoped =
  let o = env.obs in
  let body c =
    Session.rmw c ~node:ps env.keys.(ps).(is) (fun v ->
        Option.value v ~default:0 - amt);
    Session.rmw c ~node:pd env.keys.(pd).(id) (fun v ->
        Option.value v ~default:0 + amt)
  in
  let f c =
    if scoped then
      match Session.nested c (fun () -> body c) with
      | Ok () -> ()
      | Error `Deadlock -> raise (Ava3.Subtxn.Txn_abort `Deadlock)
      | Error `Rolled_back -> failwith "transfer scope rolled back"
    else body c
  in
  let t0 = Sim.Engine.now env.engine in
  o.txn_attempted <- o.txn_attempted + 1;
  match span env ~name:"Session.txn" ~layer:"session" ~parent ~trace (fun () -> Session.txn s f) with
  | Session.Committed cm ->
      o.committed <- o.committed + 1;
      o.attempts <- o.attempts + cm.Session.attempts;
      o.commit_vt <- (Sim.Engine.now env.engine -. t0) :: o.commit_vt;
      env.expected.(ps).(is) <- env.expected.(ps).(is) - amt;
      env.expected.(pd).(id) <- env.expected.(pd).(id) + amt
  | Session.Failed { attempts; durable; _ } ->
      o.txn_failed <- o.txn_failed + 1;
      o.attempts <- o.attempts + attempts;
      (* The crash-partial edge: the writes at durable homes landed. *)
      if durable <> [] then begin
        o.partial <- o.partial + 1;
        let cs = Ava3.Cluster.state env.db in
        let homes =
          List.map (fun (site, _) -> Ava3.Cluster_state.part_of_site cs site) durable
        in
        if List.mem ps homes then env.expected.(ps).(is) <- env.expected.(ps).(is) - amt;
        if List.mem pd homes then env.expected.(pd).(id) <- env.expected.(pd).(id) + amt
      end

let record_query env ~t0 (r : int Ava3.Query_exec.result) =
  let o = env.obs in
  o.queries_ok <- o.queries_ok + 1;
  o.query_vt <- (Sim.Engine.now env.engine -. t0) :: o.query_vt;
  match r.Ava3.Query_exec.staleness with
  | Some st -> o.staleness <- st :: o.staleness
  | None -> ()

let point_query env s ~parent ~trace reads =
  let o = env.obs in
  let t0 = Sim.Engine.now env.engine in
  o.query_attempted <- o.query_attempted + 1;
  match span env ~name:"Session.query" ~layer:"session" ~parent ~trace (fun () -> Session.query s ~reads) with
  | Ok r ->
      record_query env ~t0 r;
      List.iter
        (fun (n, k, v) -> if v = None then violation o "point read %d/%s found nothing" n k)
        r.Ava3.Query_exec.values
  | Error _ -> o.query_failed <- o.query_failed + 1

(* Whether the [k]-th operation falls in a stratified share [f]: of the
   first [n] operations, exactly [floor (n * f)] do, evenly spaced. *)
let every f k =
  Float.to_int (Float.of_int (k + 1) *. f) > Float.to_int (Float.of_int k *. f)

let writer env ~zipf ~pzipf i () =
  let spec = env.spec in
  let rng = Sim.Rng.fork_named (Sim.Engine.rng env.engine) (Printf.sprintf "writer-%d" i) in
  let s = Session.create env.db ~seed:(session_seed env i) in
  let trace = i in
  let client = Spans.fresh_id env.tracer in
  let t_start = Sim.Engine.now env.engine in
  let account () =
    match zipf with
    | Some z ->
        let r = Workload.Zipf.sample z rng in
        (r mod spec.partitions, r / spec.partitions)
    | None -> (Sim.Rng.int rng spec.partitions, Sim.Rng.int rng spec.accounts)
  in
  let in_partition p =
    let i =
      match pzipf with
      | Some z -> Workload.Zipf.sample z rng
      | None -> Sim.Rng.int rng spec.accounts
    in
    (p, i)
  in
  (* The operation mix is stratified, not drawn: every session runs exactly
     its share of queries, cross-partition and scoped transfers, spread
     evenly and offset per session, so only keys, amounts and timing
     depend on the seed. *)
  let transfers = ref 0 in
  for k = 0 to spec.writer_ops - 1 do
    if spec.think > 0.0 then Sim.Engine.sleep (Sim.Rng.exponential rng ~mean:spec.think);
    if every spec.point_queries (k + (3 * i)) then begin
      let reads =
        List.map (fun (p, a) -> (p, env.keys.(p).(a))) [ account (); account () ]
      in
      with_deadline env (fun () -> point_query env s ~parent:client ~trace reads)
    end
    else begin
      let t = !transfers + (5 * i) in
      incr transfers;
      let ((ps, is) as src) = account () in
      let pd =
        if spec.partitions > 1 && every spec.cross t then
          (ps + 1 + Sim.Rng.int rng (spec.partitions - 1)) mod spec.partitions
        else ps
      in
      let rec pick_dst () =
        let ((_, id) as dst) = in_partition pd in
        if pd = ps && id = is then pick_dst () else dst
      in
      let dst = pick_dst () in
      let amt = 1 + Sim.Rng.int rng 20 in
      let scoped = every spec.scoped (t + 1) in
      with_deadline env (fun () -> transfer env s ~parent:client ~trace ~src ~dst ~amt ~scoped)
    end
  done;
  if Spans.enabled env.tracer then
    Spans.add env.tracer ~id:client ~name:"writer" ~layer:"client"
      ~clock:Spans.Virtual ~parent:(-1) ~trace ~start:t_start
      ~stop:(Sim.Engine.now env.engine)

(* {2 Analytic readers} *)

let full_range = ("", "~")
let bucket_lo = 100
let bucket_hi = 999
let bucket b = Printf.sprintf "%04d" b

let audit env s ~parent ~trace =
  let o = env.obs and spec = env.spec in
  let t0 = Sim.Engine.now env.engine in
  o.query_attempted <- o.query_attempted + 1;
  let lo, hi = full_range in
  let ranges = List.init spec.partitions (fun p -> (p, lo, hi)) in
  match
    span env ~name:"Session.select(audit)" ~layer:"session" ~parent ~trace (fun () ->
        Session.select s ~plan:`Full_scan ~ranges)
  with
  | Ok r ->
      record_query env ~t0 r;
      let rows = r.Ava3.Query_exec.values in
      let n = List.length rows in
      let sum =
        List.fold_left (fun acc (_, _, v) -> acc + Option.value v ~default:0) 0 rows
      in
      if n <> spec.partitions * spec.accounts || sum <> env.total then
        violation o "audit at version %d saw %d accounts summing to %d (want %d, %d)"
          r.Ava3.Query_exec.version n sum (spec.partitions * spec.accounts) env.total
  | Error _ -> o.query_failed <- o.query_failed + 1

let select env s ~rng ~parent ~trace =
  let o = env.obs and spec = env.spec in
  let p = Sim.Rng.int rng spec.partitions in
  let parts = [ p; (p + 1) mod spec.partitions ] in
  let b = bucket_lo + Sim.Rng.int rng (bucket_hi - bucket_lo - 10) in
  let lo = bucket b and hi = bucket (b + 9) in
  let t0 = Sim.Engine.now env.engine in
  o.query_attempted <- o.query_attempted + 1;
  match
    span env ~name:"Session.select" ~layer:"session" ~parent ~trace (fun () ->
        Session.select s ~plan:`Index ~ranges:(List.map (fun p -> (p, lo, hi)) parts))
  with
  | Ok r ->
      record_query env ~t0 r;
      List.iter
        (fun (n, k, v) ->
          match v with
          | Some v when List.mem n parts && lo <= attr v && attr v <= hi ->
              o.index_rows <- o.index_rows + 1
          | _ -> violation o "select [%s,%s] returned %d/%s outside the predicate" lo hi n k)
        r.Ava3.Query_exec.values
  | Error _ -> o.query_failed <- o.query_failed + 1

let join env s ~rng ~parent ~trace =
  let o = env.obs and spec = env.spec in
  let p = Sim.Rng.int rng spec.partitions in
  let q = (p + 1 + Sim.Rng.int rng (spec.partitions - 1)) mod spec.partitions in
  let b = bucket_lo + Sim.Rng.int rng (bucket_hi - bucket_lo - 5) in
  let lo = bucket b and hi = bucket (b + 4) in
  let t0 = Sim.Engine.now env.engine in
  o.query_attempted <- o.query_attempted + 1;
  match
    span env ~name:"Session.join" ~layer:"session" ~parent ~trace (fun () ->
        Session.join s ~plan:`Index ~build:([ p ], lo, hi) ~probe:([ q ], lo, hi))
  with
  | Ok j ->
      record_query env ~t0 j.Ava3.Query_exec.join;
      o.index_rows <- o.index_rows + List.length j.Ava3.Query_exec.join.Ava3.Query_exec.values;
      List.iter
        (fun ((bn, bk, bv), (pn, pk, pv)) ->
          if bn <> p || pn <> q || attr bv <> attr pv || attr bv < lo || attr bv > hi then
            violation o "join [%s,%s] paired %d/%s with %d/%s" lo hi bn bk pn pk)
        j.Ava3.Query_exec.pairs
  | Error _ -> o.query_failed <- o.query_failed + 1

let reader env i () =
  let rng = Sim.Rng.fork_named (Sim.Engine.rng env.engine) (Printf.sprintf "reader-%d" i) in
  let s = Session.create env.db ~seed:(session_seed env (1000 + i)) in
  let trace = 1000 + i in
  let client = Spans.fresh_id env.tracer in
  let t_start = Sim.Engine.now env.engine in
  (* Stratified mix: one audit, six index selects, three joins in ten. *)
  for k = 0 to env.spec.reader_ops - 1 do
    match (k + (3 * i)) mod 10 with
    | 0 -> audit env s ~parent:client ~trace
    | 1 | 2 | 3 | 4 | 5 | 6 -> select env s ~rng ~parent:client ~trace
    | _ -> join env s ~rng ~parent:client ~trace
  done;
  if Spans.enabled env.tracer then
    Spans.add env.tracer ~id:client ~name:"reader" ~layer:"client"
      ~clock:Spans.Virtual ~parent:(-1) ~trace ~start:t_start
      ~stop:(Sim.Engine.now env.engine)

(* {2 Advancement} *)

(* Virtual-time bounds: far beyond any workload's length, they only turn
   a client that never finishes, or a system that never falls quiet
   after the last client, into a reported failure instead of an endless
   run. *)
let vt_cap = 2e5
let drain_vt = 2000.0

(* The timed part of a repetition: run the engine until every client has
   finished, then until the system is quiet (every injected fault healed,
   no event left).  An exception escaping the program is a failed check,
   not a crash of the benchmark. *)
let run env =
  let o = env.obs in
  let engine = env.engine in
  match
    Sim.Engine.run ~until:vt_cap engine;
    Sim.Engine.run ~until:(Float.max env.heal_at (Sim.Engine.now engine) +. drain_vt) engine
  with
  | () ->
      if o.running > 0 then
        violation o "%d clients never finished (stuck by virtual time %.0f)" o.running vt_cap
      else if Sim.Engine.pending_events engine > 0 then
        violation o "the system did not fall quiet after the workload: %s still pending"
          (String.concat ", "
             (List.sort_uniq compare
                (List.filter_map snd (Sim.Engine.pending_summary engine))));
      o.running = 0 && Sim.Engine.pending_events engine = 0
  | exception e ->
      violation o "run aborted by %s" (Printexc.to_string e);
      false

(* Periodic advancement while any client runs.  Without faults each round
   is awaited, so its span covers all three phases.  Under faults a
   coordinator may die mid-round, so rounds are only initiated, from the
   first partition whose primary is alive (a busy beat is skipped), and a
   stalled round is re-run by a later beat. *)
let advancer env () =
  let spec = env.spec in
  let trace = 2000 in
  let first_alive () =
    let rec go p =
      if p >= spec.partitions then None
      else if Ava3.Node_state.alive (Ava3.Cluster.node env.db (Ava3.Cluster_state.home_site (Ava3.Cluster.state env.db) p))
      then Some p
      else go (p + 1)
    in
    go 0
  in
  while env.obs.running > 0 && Sim.Engine.now env.engine < vt_cap do
    Sim.Engine.sleep spec.adv_period;
    if env.obs.running > 0 then
      span env ~name:"Cluster.advance" ~layer:"ava3" ~parent:(-1) ~trace (fun () ->
          if spec.faults > 0 then
            Option.iter
              (fun p -> ignore (Ava3.Cluster.advance env.db ~coordinator:p : [ `Started of int | `Busy ]))
              (first_alive ())
          else
            ignore
              (Ava3.Cluster.advance_and_wait env.db ~coordinator:0
                : [ `Completed of int | `Busy ]))
  done

let spawn_clients env =
  let spec = env.spec in
  let total = spec.partitions * spec.accounts in
  let zipf =
    if spec.theta > 0.0 then Some (Workload.Zipf.create ~n:total ~theta:spec.theta)
    else None
  in
  let pzipf =
    if spec.theta > 0.0 then
      Some (Workload.Zipf.create ~n:spec.accounts ~theta:spec.theta)
    else None
  in
  env.obs.running <- spec.writers + spec.readers;
  let finish () =
    env.obs.running <- env.obs.running - 1;
    if env.obs.running = 0 then begin
      env.obs.vt_end <- Sim.Engine.now env.engine;
      Sim.Engine.stop env.engine
    end
  in
  for i = 0 to spec.writers - 1 do
    Sim.Engine.spawn env.engine ~name:(Printf.sprintf "writer-%d" i) (fun () ->
        writer env ~zipf ~pzipf i ();
        finish ())
  done;
  for i = 0 to spec.readers - 1 do
    Sim.Engine.spawn env.engine ~name:(Printf.sprintf "reader-%d" i) (fun () ->
        reader env i ();
        finish ())
  done;
  Sim.Engine.spawn env.engine ~name:"advancer" (advancer env)

(* {2 Output checks, after the timed run} *)

let settle env =
  let o = env.obs in
  let engine = env.engine in
  let settled = ref false in
  Sim.Engine.spawn engine ~name:"settle" (fun () ->
      let now = Sim.Engine.now engine in
      if now < env.heal_at then Sim.Engine.sleep (env.heal_at -. now +. 1.0);
      (* Two completed rounds make every committed write readable. *)
      let rec rounds done_ tries =
        if done_ < 2 then
          if tries > 500 then violation o "advancement did not complete after the run"
          else begin
            match Ava3.Cluster.advance_and_wait env.db ~coordinator:0 with
            | `Completed _ -> rounds (done_ + 1) (tries + 1)
            | `Busy ->
                Sim.Engine.sleep 5.0;
                rounds done_ (tries + 1)
          end
      in
      rounds 0 0;
      let spec = env.spec in
      (* Key-range chunks, so no single read outlasts a finite RPC timeout. *)
      let chunk = 32 in
      let ranges =
        List.concat
          (List.init spec.partitions (fun p ->
               List.init ((spec.accounts + chunk - 1) / chunk) (fun c ->
                   (p, key p (c * chunk), key p (min spec.accounts ((c + 1) * chunk) - 1)))))
      in
      let rec scan tries =
        match Ava3.Cluster.run_scan env.db ~root:0 ~ranges with
        | r -> r.Ava3.Query_exec.values
        | exception (Net.Network.Rpc_timeout _ | Net.Network.Node_down _) when tries < 20 ->
            Sim.Engine.sleep 10.0;
            scan (tries + 1)
      in
      let seen = Array.map (fun a -> Array.make (Array.length a) false) env.expected in
      List.iter
        (fun (p, k, v) ->
          match Scanf.sscanf_opt k "a%d-%d" (fun p' i -> (p', i)) with
          | Some (p', i) when p' = p && i >= 0 && i < spec.accounts -> (
              seen.(p).(i) <- true;
              match v with
              | Some b when b = env.expected.(p).(i) -> ()
              | Some b ->
                  violation o "account %s ends at %d, expected %d (money not conserved exactly once)" k b
                    env.expected.(p).(i)
              | None -> violation o "account %s vanished" k)
          | _ -> violation o "final scan returned unknown key %d/%s" p k)
        (scan 0);
      Array.iteri
        (fun p a -> Array.iteri (fun i s -> if not s then violation o "account %s missing" (key p i)) a)
        seen;
      settled := true);
  match Sim.Engine.run ~until:(Sim.Engine.now engine +. vt_cap) engine with
  | exception e -> violation o "settling aborted by %s" (Printexc.to_string e)
  | () when not !settled ->
      violation o "settling did not finish: advancement or the final scan is stuck"
  | () ->
  List.iter (violation o "quiescent invariant: %s")
    (Ava3.Cluster.check_quiescent_invariants env.db);
  let mv = (Ava3.Cluster.stats env.db).Ava3.Cluster.max_versions_ever in
  if mv > 3 then violation o "an item held %d versions (at most 3 allowed)" mv

(* {1 Layer counters of one repetition} *)

(* Percentile of a log2-bucketed histogram: the upper bound of the bucket
   holding the nearest-rank sample. *)
let hist_pct (h : Sim.Metrics.hist_snapshot) permille =
  if h.count = 0 then 0.0
  else
    let r = Stats.rank ~n:h.count permille in
    let rec go acc = function
      | [] -> h.max
      | (le, c) :: rest -> if acc + c >= r then le else go (acc + c) rest
    in
    go h.neg h.buckets

let merge_hists (hs : Sim.Metrics.hist_snapshot list) : Sim.Metrics.hist_snapshot =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (h : Sim.Metrics.hist_snapshot) ->
      List.iter
        (fun (le, c) ->
          Hashtbl.replace tbl le (c + Option.value ~default:0 (Hashtbl.find_opt tbl le)))
        h.buckets)
    hs;
  {
    count = List.fold_left (fun a (h : Sim.Metrics.hist_snapshot) -> a + h.count) 0 hs;
    sum = List.fold_left (fun a (h : Sim.Metrics.hist_snapshot) -> a +. h.sum) 0.0 hs;
    min = List.fold_left (fun a (h : Sim.Metrics.hist_snapshot) -> Float.min a h.min) infinity hs;
    max = List.fold_left (fun a (h : Sim.Metrics.hist_snapshot) -> Float.max a h.max) 0.0 hs;
    neg = List.fold_left (fun a (h : Sim.Metrics.hist_snapshot) -> a + h.neg) 0 hs;
    buckets = List.sort compare (Hashtbl.fold (fun le c acc -> (le, c) :: acc) tbl []);
  }

(* The deterministic figures of one repetition: its latency samples and
   additive layer counters.  Tallies of several repetitions pool by
   concatenating samples and adding counters. *)
type tally = {
  commit_vt : float list;
  query_vt : float list;
  staleness : float list;
  counts : (string * float) list;  (** additive, in a fixed order *)
  rpc : Sim.Metrics.hist_snapshot;
  phase1 : Sim.Metrics.hist_snapshot;
  phase2 : Sim.Metrics.hist_snapshot;
  max_versions : int;
}

let tally env =
  let o = env.obs in
  let st = Ava3.Cluster.stats env.db in
  let snap = Ava3.Cluster.metrics_snapshot env.db in
  let sum f = List.fold_left (fun a (n : Sim.Metrics.node_snapshot) -> a + f n) 0 snap in
  let sumf f = List.fold_left (fun a (n : Sim.Metrics.node_snapshot) -> a +. f n) 0.0 snap in
  let hist f = merge_hists (List.map f snap) in
  let ix_updates, ix_probes, ix_candidates =
    let acc = ref (0, 0, 0) in
    for n = 0 to Ava3.Cluster.node_count env.db - 1 do
      match Ava3.Node_state.index (Ava3.Cluster.node env.db n) with
      | Some ix ->
          let s = Vindex.Index.stats ix in
          let u, p, c = !acc in
          acc := (u + s.updates, p + s.probes, c + s.candidates)
      | None -> ()
    done;
    !acc
  in
  let f = float_of_int in
  {
    commit_vt = o.commit_vt;
    query_vt = o.query_vt;
    staleness = o.staleness;
    counts =
      [
        ("committed", f o.committed);
        ("attempts", f o.attempts);
        ("partial", f o.partial);
        ("index_rows", f o.index_rows);
        ("unanswered", f o.unanswered);
        ("vt", o.vt_end);
        ("events", f (Sim.Engine.events_executed env.engine));
        ("messages", f st.messages);
        ("envelopes", f st.envelopes);
        ("rpc_calls", f (sum (fun n -> n.rpc_calls)));
        ("rpc_timeouts", f (sum (fun n -> n.rpc_timeouts)));
        ("lock_waits", f st.lock_waits);
        ("lock_wait_time", st.lock_wait_time);
        ("deadlocks", f st.deadlocks);
        ("latch_acquisitions", f st.latch_acquisitions);
        ("disk_forces", f st.disk_forces);
        ("records_forced", f st.records_forced);
        ("mtf_items_copied", f st.mtf_items_copied);
        ("aborts_deadlock", f (sum (fun n -> n.aborts_deadlock)));
        ("aborts_rpc_timeout", f (sum (fun n -> n.aborts_rpc_timeout)));
        ("aborts_node_down", f (sum (fun n -> n.aborts_node_down)));
        ("root_down", f (sum (fun n -> n.root_down_rejections)));
        ("mtf_data_access", f st.mtf_data_access);
        ("mtf_commit_time", f st.mtf_commit_time);
        ("version_mismatches", f st.commit_version_mismatches);
        ("advancements", f st.advancements);
        ("backup_reads", f st.backup_reads);
        ("replica_promotions", f st.replica_promotions);
        ("replica_demotions", f st.replica_demotions);
        ("ix_updates", f ix_updates);
        ("ix_probes", f ix_probes);
        ("ix_candidates", f ix_candidates);
        ("session_retries", f (sum (fun n -> n.session_retries)));
        ("session_backoff", sumf (fun n -> n.session_backoff));
        ("savepoint_rollbacks", f (sum (fun n -> n.savepoint_rollbacks)));
      ];
    rpc = hist (fun n -> n.rpc_latency);
    phase1 = hist (fun n -> n.phase1_duration);
    phase2 = hist (fun n -> n.phase2_duration);
    max_versions = st.max_versions_ever;
  }

let pool = function
  | [] -> invalid_arg "Des.pool: nothing to pool"
  | t :: rest ->
      List.fold_left
        (fun a b ->
          {
            commit_vt = b.commit_vt @ a.commit_vt;
            query_vt = b.query_vt @ a.query_vt;
            staleness = b.staleness @ a.staleness;
            counts = List.map2 (fun (k, x) (_, y) -> (k, x +. y)) a.counts b.counts;
            rpc = merge_hists [ a.rpc; b.rpc ];
            phase1 = merge_hists [ a.phase1; b.phase1 ];
            phase2 = merge_hists [ a.phase2; b.phase2 ];
            max_versions = max a.max_versions b.max_versions;
          })
        t rest

(* Percentiles (with their sample counts) and layer figures of a pooled
   tally.  Ratios are taken over the pooled sums. *)
let figures t =
  let c k = List.assoc k t.counts in
  let commits = c "committed" in
  let pcts =
    [
      ("commit_vt_p50", Stats.p50 (Stats.of_list t.commit_vt));
      ("commit_vt_p99", Stats.tail (Stats.of_list t.commit_vt));
      ("query_vt_p50", Stats.p50 (Stats.of_list t.query_vt));
      ("query_vt_p99", Stats.tail (Stats.of_list t.query_vt));
      ("staleness_vt_p50", Stats.p50 (Stats.of_list t.staleness));
      ("staleness_vt_p99", Stats.tail (Stats.of_list t.staleness));
    ]
  in
  let per_commit k = Stats.ratio (c k) commits in
  ( pcts,
    [
      ("goodput_vt", 1000.0 *. Stats.ratio commits (c "vt"));
      ("max_versions", float_of_int t.max_versions);
      ("sim.events", c "events");
      ("sim.events_per_txn", per_commit "events");
      ("net.messages_per_commit", per_commit "messages");
      ("net.envelopes", c "envelopes");
      ("net.rpc_calls", c "rpc_calls");
      ("net.rpc_timeouts", c "rpc_timeouts");
      ("net.rpc_vt_p50", hist_pct t.rpc 500);
      ("net.rpc_vt_p99", hist_pct t.rpc 990);
      ("lockmgr.waits", c "lock_waits");
      ("lockmgr.wait_vt_per_commit", per_commit "lock_wait_time");
      ("lockmgr.deadlocks", c "deadlocks");
      ("lockmgr.latch_acquisitions", c "latch_acquisitions");
      ("wal.forces_per_commit", per_commit "disk_forces");
      ("wal.records_per_force", Stats.ratio (c "records_forced") (c "disk_forces"));
      ("vstore.max_versions", float_of_int t.max_versions);
      ("vstore.mtf_items_copied", c "mtf_items_copied");
      ("ava3.aborts_deadlock", c "aborts_deadlock");
      ("ava3.aborts_rpc_timeout", c "aborts_rpc_timeout");
      ("ava3.aborts_node_down", c "aborts_node_down");
      ("ava3.root_down", c "root_down");
      ("ava3.mtf_data_access", c "mtf_data_access");
      ("ava3.mtf_commit_time", c "mtf_commit_time");
      ("ava3.version_mismatches", c "version_mismatches");
      ("ava3.advancements", c "advancements");
      ("ava3.phase1_vt_p99", hist_pct t.phase1 990);
      ("ava3.phase2_vt_p99", hist_pct t.phase2 990);
      ("ava3.backup_reads", c "backup_reads");
      ("ava3.replica_promotions", c "replica_promotions");
      ("ava3.replica_demotions", c "replica_demotions");
      ("vindex.updates_per_commit", per_commit "ix_updates");
      ("vindex.candidates_per_result", Stats.ratio (c "ix_candidates") (c "index_rows"));
      ("vindex.probes", c "ix_probes");
      ("session.attempts_per_commit", per_commit "attempts");
      ("session.retries", c "session_retries");
      ("session.backoff_vt", c "session_backoff");
      ("session.savepoint_rollbacks", c "savepoint_rollbacks");
      ("session.partial_commits", c "partial");
      ("session.unanswered", c "unanswered");
    ] )
