(* The paper's evaluation in the simulator: the paper's workload (§4) at
   dedicated and multiprogrammed points, with a fixed pair count.  The
   simulation is deterministic, so every round repeats the same net
   cycles; what is measured is how fast the simulator produces them. *)

open Common

(* (processors, processes per processor) *)
let points = [ (8, 1); (8, 2); (4, 3) ]
let sim_pairs = 3_000
let warm_pairs = 200

let params ~seed ~pairs (p, mpl) =
  {
    Harness.Params.default with
    total_pairs = pairs;
    processors = p;
    multiprogramming = mpl;
    seed = Int64.of_int seed;
  }

let point_name (p, mpl) = Printf.sprintf "p%dm%d" p mpl

type target = {
  key : string;
  algo : (module Squeues.Intf.S);
  net : (int * int, int) Hashtbl.t;  (** net cycles of each point, first round *)
  mutable reps : float list;  (** wall ns per simulated pair, per untraced round *)
  mutable reps_traced : float list;
  sp_points : int list;
}

let target key =
  {
    key;
    algo = Harness.Registry.find key;
    net = Hashtbl.create 4;
    reps = [];
    reps_traced = [];
    sp_points = List.map (fun pt -> Spans.intern ("sim:" ^ key ^ ":" ^ point_name pt)) points;
  }

let sp_round = Spans.intern "sim-round"

(* One point: the simulated pairs that failed a check (0 when it
   completed every pair and repeated its first-round net cycles). *)
let check t pt (mm : Harness.Workload.measurement) =
  let ok_run = mm.completed && mm.pairs_done = sim_pairs in
  let ok_repeat =
    match Hashtbl.find_opt t.net pt with
    | None ->
        Hashtbl.add t.net pt mm.net_time;
        true
    | Some n -> n = mm.net_time
  in
  if ok_run && ok_repeat then 0 else sim_pairs

(* At (8, 2), the paper's Figure 4 ordering: ms < two-lock < single-lock. *)
let ordering ts =
  let net k =
    match List.find_opt (fun t -> t.key = k) ts with
    | Some t -> Hashtbl.find_opt t.net (8, 2)
    | None -> None
  in
  match (net "ms", net "two-lock", net "single-lock") with
  | Some a, Some b, Some c -> if a < b && b < c then 0 else sim_pairs
  | _ -> 0

let round ~seed ~spans ts =
  let root =
    match spans with
    | Some b -> Spans.open_ b ~name:sp_round ~id:0 ~parent:(-1) (now ())
    | None -> -1
  in
  let failed =
    List.fold_left
      (fun acc t ->
        let (module Q) = t.algo in
        (* each queue starts from a collected heap, so its time does not
           depend on how much garbage the queue before it left *)
        Gc.full_major ();
        let t0 = now () in
        let f =
          List.fold_left2
            (fun a pt sp ->
              let c =
                match spans with
                | Some b -> Spans.open_ b ~name:sp ~id:0 ~parent:root (now ())
                | None -> -1
              in
              let mm = Harness.Workload.run (module Q) (params ~seed ~pairs:sim_pairs pt) in
              Option.iter (fun b -> Spans.close b c (now ())) spans;
              a + check t pt mm)
            0 points t.sp_points
        in
        let ns = float_of_int (now () - t0) /. float_of_int (sim_pairs * List.length points) in
        if Option.is_none spans then t.reps <- ns :: t.reps
        else t.reps_traced <- ns :: t.reps_traced;
        acc + f)
      0 ts
  in
  Option.iter (fun b -> Spans.close b root (now ())) spans;
  failed + ordering ts

let run (ctx : ctx) =
  let setup () =
    let ts = List.map target Queues.keys in
    List.iter
      (fun t ->
        let (module Q) = t.algo in
        ignore (Harness.Workload.run (module Q) (params ~seed:ctx.seed ~pairs:warm_pairs (2, 1))))
      ts;
    ts
  in
  let ts, setups = timed_setups setup in
  let failed = ref 0 and words = ref 0. in
  let rounds =
    rounds_for ctx.seconds (fun i ->
        retime setups;
        let spans = Option.map fst (spans_for ctx i) in
        let w0 = Gc.minor_words () in
        failed := !failed + round ~seed:ctx.seed ~spans ts;
        words := !words +. (Gc.minor_words () -. w0))
  in
  let pairs = rounds * List.length ts * List.length points * sim_pairs in
  {
    attempted = pairs;
    failed = !failed;
    traced =
      (if Option.is_none ctx.trace then []
       else List.map (fun t -> m (t.key ^ ".ns_per_op") "ns" (fast_decile t.reps_traced)) ts);
    metrics =
      List.map (fun t -> m (t.key ^ ".ns_per_op") "ns" (fast_decile t.reps)) ts
      @ [
          m "alloc_words_per_op" "words" (!words /. float_of_int pairs);
          m "setup_s" "s" (setup_seconds setups);
        ];
    notes =
      Printf.sprintf "sim: %d rounds x %d queues x %s, %d pairs each" rounds
        (List.length ts)
        (String.concat "," (List.map point_name points))
        sim_pairs
      :: List.map
           (fun t ->
             Printf.sprintf "  %-12s net cycles/pair %s" t.key
               (String.concat " "
                  (List.map
                     (fun pt ->
                       Printf.sprintf "%s=%.0f" (point_name pt)
                         (float_of_int (Hashtbl.find t.net pt) /. float_of_int sim_pairs))
                     points)))
           ts;
  }

(* The simulator's ledger for the traced run: the paper's six queues at
   (p=8, mpl=2), whose net cycles are deterministic, plus the engine's
   own work per simulated pair. *)
let ledger ~seed =
  let pt = (8, 2) in
  let steps = ref 0 and misses = ref 0 and wall = ref 0 and pairs = ref 0 in
  let failed = ref 0 in
  let per_queue =
    List.map
      (fun { Harness.Registry.key; algo } ->
        let t0 = now () in
        let mm = Harness.Workload.run algo (params ~seed ~pairs:sim_pairs pt) in
        wall := !wall + (now () - t0);
        steps := !steps + mm.stats.Sim.Stats.steps;
        misses := !misses + mm.stats.Sim.Stats.cache_misses;
        pairs := !pairs + sim_pairs;
        if not (mm.completed && mm.pairs_done = sim_pairs) then
          failed := !failed + sim_pairs;
        m ("sim." ^ key ^ ".net_cycles_per_pair") "cycles" mm.net_per_pair)
      Harness.Registry.all
  in
  let per x = float_of_int x /. float_of_int !pairs in
  ( !failed,
    !pairs,
    per_queue
    @ [
        m "sim.steps_per_pair" "steps" (per !steps);
        m "sim.cache_misses_per_pair" "count" (per !misses);
        m "sim.ns_per_step" "ns" (float_of_int !wall /. float_of_int !steps);
      ] )
