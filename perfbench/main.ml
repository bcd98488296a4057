(* perfbench: run one workload of the AVA3 benchmark and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--domains D]

   Prints a provenance line, one line per metric (name, value, unit, and
   for percentiles the percentile used and its sample count), and, as the
   last line, one JSON object {correct, attempted, failed, metrics}.  The
   same result, with provenance, is written under perfbench/out/; a traced
   run also writes its spans as Chrome trace-event JSON and a self-time
   table per layer.  A failed output check prints the violations to
   stderr and exits 1 without a result. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (oltp|analytics|failover|mcore) --seed N \
     --seconds S --trace 0|1 [--domains D]";
  exit 2

(* First line of a command's standard output; [None] if it fails. *)
let capture prog args =
  match
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    let pid = Unix.create_process prog (Array.of_list (prog :: args)) devnull out_w devnull in
    Unix.close out_w;
    Unix.close devnull;
    let ic = Unix.in_channel_of_descr out_r in
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> line
    | _ -> None
  with
  | r -> r
  | exception Unix.Unix_error _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let domains = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n when n >= 0 -> seed := n | _ -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        parse rest
    | "--domains" :: v :: rest ->
        (match int_of_string_opt v with Some n when n >= 1 -> domains := n | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload Bench.workloads)) || !seed < 0 || !seconds <= 0.0 || !trace < 0
  then usage ();
  let nproc =
    match Option.bind (capture "nproc" []) int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  let cores = min nproc (Domain.recommended_domain_count ()) in
  let domains = if !domains = 0 then min 2 cores else !domains in
  if domains > cores then begin
    Printf.eprintf
      "perfbench: %d domains requested but only %d cores: refusing to report \
       oversubscription as contention\n"
      domains cores;
    exit 2
  end;
  let recommended = Domain.recommended_domain_count () in
  let commit = Option.value ~default:"unknown" (capture "git" [ "rev-parse"; "HEAD" ]) in
  let domains = if !workload = "mcore" then domains else 1 in
  let traced = !trace = 1 in
  let r =
    Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced
      ~domains
  in
  if r.Bench.violations <> [] then begin
    List.iter (Printf.eprintf "perfbench %s seed %d: CHECK FAILED: %s\n" !workload !seed)
      (List.sort_uniq compare r.Bench.violations);
    exit 1
  end;
  let r =
    {
      r with
      Bench.metrics =
        r.Bench.metrics
        @ [
            ("host.nproc", float_of_int nproc);
            ("host.recommended_domains", float_of_int recommended);
            ("run.domains", float_of_int domains);
          ];
    }
  in
  let prov_json =
    Json.Obj
      [
        ("workload", Json.Str !workload);
        ("seed", Json.Num (float_of_int !seed));
        ("domains", Json.Num (float_of_int domains));
        ("nproc", Json.Num (float_of_int nproc));
        ("recommended_domain_count", Json.Num (float_of_int recommended));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("commit", Json.Str commit);
        ("repetitions", Json.Num (float_of_int r.Bench.reps));
      ]
  in
  Printf.printf "perfbench %s\n" (Json.to_string prov_json);
  let pct_note name =
    match List.assoc_opt name r.Bench.pcts with
    | Some p -> Printf.sprintf "  (%s of n=%d)" (Stats.label p) p.Stats.n
    | None -> ""
  in
  let table = Bench.table ~trace:traced r in
  List.iter
    (fun (name, value, unit) ->
      let note =
        if List.mem name Bench.from_histograms then "  (upper bound of a log2 histogram bucket)"
        else pct_note name
      in
      Printf.printf "%-34s %16.6g %s%s\n" name value unit note)
    table;
  let out = Printf.sprintf "perfbench/out/%s-seed%d-trace%d" !workload !seed !trace in
  let result = Bench.result_json ~trace:traced r in
  write_file (out ^ ".json")
    (Json.to_string
       (Json.Obj
          [
            ("provenance", prov_json);
            ("result", result);
            ( "percentiles",
              Json.Obj
                (List.map
                   (fun (name, (p : Stats.pct)) ->
                     ( name,
                       Json.Obj
                         [
                           ("percentile", Json.Num (float_of_int p.Stats.permille /. 10.0));
                           ("samples", Json.Num (float_of_int p.Stats.n));
                         ] ))
                   r.Bench.pcts) );
          ]));
  if traced then begin
    (* The self-time table covers every span; the trace file keeps the
       earliest [max_exported] so it stays small enough to open. *)
    let max_exported = 50_000 in
    let exported =
      List.sort (fun (a : Spans.span) b -> compare a.start b.start) r.Bench.spans
      |> List.filteri (fun i _ -> i < max_exported)
    in
    write_file (out ^ ".trace.json") (Json.to_string (Spans.chrome_json exported));
    let rows = Spans.self_table (Spans.self_times r.Bench.spans) in
    write_file (out ^ ".selftime.txt") (String.concat "\n" rows ^ "\n");
    List.iter (Printf.printf "self-time %s\n") rows
  end;
  print_endline (Json.to_string result)
