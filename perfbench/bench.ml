(* perfbench: the repository's benchmark.

     bench.exe --workload pairs|sim --seed N --seconds S --trace 0|1

   Prints its provenance and a human-readable report, then, as the last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   workload's odd rounds record spans, and the per-layer ledger follows,
   with the open-loop serving runs of [Serve].
   See README.md. *)

open Common

let workloads = [ ("pairs", Pairs.run); ("sim", Sim_load.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload pairs|sim --seed N --seconds S --trace 0|1";
  exit 2

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !workload workloads) then usage ();
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  (!workload, !seed, !seconds, !trace = 1)

(* ------------------------------------------------------------------ *)
(* Provenance.  The checkout may not be a git repository, so a digest of
   the library sources identifies the code as well. *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "none"
  with _ -> "none"

let source_digest () =
  let rec files dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat dir f))
    else if Filename.check_suffix dir ".ml" || Filename.check_suffix dir ".mli" then
      [ dir ]
    else []
  in
  match files "lib" with
  | [] -> "none"
  | fs -> Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file fs)))

let provenance ~workload ~seed ~seconds ~trace =
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%g trace=%b\n\
     git_rev=%s lib_digest=%s nproc=%d ocaml=%s\n%!"
    workload seed seconds trace (git_rev ()) (source_digest ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* ------------------------------------------------------------------ *)
(* The traced run *)

let span_capacity = 100_000
let out_dir = Filename.concat "perfbench" "_out"

let ns_per_op metrics =
  List.filter_map
    (fun x ->
      if String.ends_with ~suffix:".ns_per_op" x.name then Some (x.name, x.value)
      else None)
    metrics

let traced ~workload ~run ctx =
  let bufs =
    (Spans.create ~tid:0 span_capacity, Spans.create ~tid:1 span_capacity)
  in
  let r = run { ctx with trace = Some bufs } in
  let base = ns_per_op r.metrics in
  let ratios = List.map (fun (k, v) -> v /. List.assoc k base) (ns_per_op r.traced) in
  let overhead = List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios) in
  let w = Option.get ctx.worker in
  let f_solo, n_solo, solo = Layers.solo ~seconds:4. in
  let obs = Layers.obs () in
  let f_serve, n_serve, serve, serve_notes =
    Serve.ledger w ~seed:ctx.seed ~spans:(Some bufs) ~rounds:10
  in
  let f_sim, n_sim, sim = Sim_load.ledger ~seed:ctx.seed in
  let summary = Spans.summarize [ fst bufs; snd bufs ] in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s.json" workload) in
  Spans.write_chrome path [ fst bufs; snd bufs ];
  let notes =
    serve_notes
    @ (Printf.sprintf "traced rounds: %d spans (1 op in %d) written to %s"
       summary.spans trace_every path
    :: List.map
         (fun (name, c, self) ->
           Printf.sprintf "  self %-28s %8.1f ns x %d" name
             (float_of_int self /. float_of_int c)
             c)
         summary.per_name)
    @ [
        Printf.sprintf
          "tracing overhead: ns_per_op of traced rounds / untraced rounds = %.4f" overhead;
        Printf.sprintf "failed: workload %d, solo ledger %d, serve ledger %d, sim ledger %d"
          r.failed f_solo f_serve f_sim;
      ]
  in
  {
    attempted = r.attempted + n_solo + n_serve + n_sim;
    failed = r.failed + f_solo + f_serve + f_sim;
    metrics =
      solo @ obs @ serve @ sim
      @ [
          m "trace.overhead_ratio" "ratio" overhead;
          m "trace.spans" "count" (float_of_int summary.spans);
          m "trace.root_self_ns" "ns" summary.root_self_ns;
          m "trace.call_ns" "ns" summary.call_ns;
        ];
    traced = [];
    notes = r.notes @ notes;
  }

let () =
  let workload, seed, seconds, trace = parse () in
  provenance ~workload ~seed ~seconds ~trace;
  let run = List.assoc workload workloads in
  let worker = if trace || workload <> "sim" then Some (Worker.spawn ()) else None in
  let ctx = { seed; seconds; worker; trace = None } in
  let r =
    Fun.protect
      ~finally:(fun () -> Option.iter Worker.stop worker)
      (fun () -> if trace then traced ~workload ~run ctx else run ctx)
  in
  List.iter print_endline r.notes;
  List.iter
    (fun x -> Printf.printf "  %-44s %14.4f %s\n" x.name x.value x.unit_)
    r.metrics;
  print_endline (result_line ~correct:(r.failed = 0) r)
