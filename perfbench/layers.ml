(* The layer-cost ledger: single-domain costs of each layer, timed from
   outside through its public functions.

   - The bare queues of [Core] and [Baselines].
   - The fabric ladder, one layer added per rung, so each rung's delta
     over the one before is that layer's cost: the SCQ ring alone; the
     resilience engine over the same ring with deadline and breaker
     off; the engine with its default config; a 1-shard fabric; the
     8-shard [default_config] fabric; then with Obs.Control on; then
     with Obs.Flight on as well.
   - Per-event costs of the observability hooks. *)

open Common
module R = Resilience.Resilient
module F = Fabric.Queue_fabric

let solo_pairs = 20_000

let engine_over_ring config =
  let ring = Core.Scq_queue.create ~capacity:1024 () in
  let e = R.Engine.create ~config ~name:"perfbench.engine" () in
  {
    Queues.enq =
      (fun v ->
        match
          R.Engine.enqueue e (fun () ->
              if Core.Scq_queue.try_enqueue ring v then Some () else None)
        with
        | Ok () -> true
        | Error _ -> false);
    deq =
      (fun () ->
        match R.Engine.dequeue e (fun () -> Core.Scq_queue.try_dequeue ring) with
        | Ok v -> Some v
        | Error _ -> None);
    exact_empty = true;
  }

let plain f = f ()
let metrics_on f = Obs.Control.with_enabled f

let flight_on f =
  Obs.Control.with_enabled (fun () ->
      Obs.Flight.enable ();
      Fun.protect ~finally:Obs.Flight.disable f)

(* (metric prefix, queue, telemetry around its repetitions).  The
   ladder's first rung, the SCQ ring alone, is [core.scq]; [solo]
   reports it under both names. *)
let rungs () =
  let fabric ?(config = F.default_config) () = Queues.of_fabric (F.create ~config ()) in
  [
    ("core.ms", Queues.native "ms", plain);
    ("core.two-lock", Queues.native "two-lock", plain);
    ("core.segmented", Queues.native "segmented", plain);
    ("core.scq", Queues.native "scq", plain);
    ("baselines.single-lock", Queues.native "single-lock", plain);
    ( "ladder.engine-bare",
      engine_over_ring { R.default with deadline_ns = 0; breaker_threshold = 0 },
      plain );
    ("ladder.engine", engine_over_ring R.default, plain);
    ("ladder.fabric1", fabric ~config:{ F.default_config with shards = 1 } (), plain);
    ("ladder.fabric8", fabric (), plain);
    ("ladder.fabric8-metrics", fabric (), metrics_on);
    ("ladder.fabric8-flight", fabric (), flight_on);
  ]

(* Repetitions of every rung, interleaved round-robin for [seconds];
   medians per rung.  Returns (failed checks, pairs, metrics). *)
let solo ~seconds =
  let ts =
    List.map
      (fun (name, q, env) ->
        let t = Pairs.target name q in
        Pairs.prefill t;
        (t, env, ref [], ref []))
      (rungs ())
  in
  List.iter (fun (t, env, _, _) -> ignore (env (fun () -> Pairs.solo_rep t ~r:1_000))) ts;
  let rounds =
    rounds_for seconds (fun _ ->
        List.iter
          (fun (t, env, ns, ws) ->
            let n, w = env (fun () -> Pairs.solo_rep t ~r:solo_pairs) in
            ns := n :: !ns;
            ws := w :: !ws)
          ts)
  in
  let failed = List.fold_left (fun a (t, _, _, _) -> a + Pairs.audit t) 0 ts in
  let rung prefix ns ws =
    [
      m (prefix ^ ".ns_per_pair") "ns" (iq_mean ns);
      m (prefix ^ ".words_per_pair") "words" (median ws);
    ]
  in
  ( failed,
    rounds * List.length ts * solo_pairs,
    List.concat_map
      (fun ((t : Pairs.target), _, ns, ws) ->
        rung t.key !ns !ws
        @ if t.key = "core.scq" then rung "ladder.shard" !ns !ws else [])
      ts )

(* ns (and minor words) per event of one hook, median of 5 repetitions
   of [n] events. *)
let per_event ?(env = plain) n f =
  let ns = ref [] and ws = ref [] in
  env (fun () ->
      for _ = 1 to 5 do
        let w0 = Gc.minor_words () in
        let t0 = now () in
        for i = 1 to n do
          f i
        done;
        let dt = now () - t0 in
        ns := (float_of_int dt /. float_of_int n) :: !ns;
        ws := ((Gc.minor_words () -. w0) /. float_of_int n) :: !ws
      done);
  (median !ns, median !ws)

let obs () =
  let site _ = Locks.Probe.site "perfbench.site" in
  let probe_off, _ = per_event 1_000_000 site in
  let probe_on, _ =
    per_event
      ~env:(fun f ->
        Locks.Probe.enable ();
        Fun.protect ~finally:Locks.Probe.disable f)
      1_000_000
      (fun _ -> Locks.Probe.cas_retry ())
  in
  let flight, flight_w =
    per_event
      ~env:(fun f ->
        Obs.Flight.enable ();
        Fun.protect ~finally:Obs.Flight.disable f)
      200_000 site
  in
  let c = Obs.Counter.create () in
  let counter, _ = per_event 1_000_000 (fun _ -> Obs.Counter.incr c) in
  let h = Obs.Histogram.create () in
  let histogram, _ = per_event 1_000_000 (fun i -> Obs.Histogram.record h i) in
  let fab = F.create () in
  F.register_telemetry ~prefix:"perfbench" fab;
  let tick, tick_w = per_event 2_000 (fun _ -> Obs.Sampler.tick ()) in
  Obs.Sampler.remove ~prefix:"perfbench";
  Obs.Sampler.clear ();
  [
    m "obs.probe_off.ns" "ns" probe_off;
    m "obs.probe_on.ns" "ns" probe_on;
    m "obs.flight.ns" "ns" flight;
    m "obs.flight.words" "words" flight_w;
    m "obs.counter.ns" "ns" counter;
    m "obs.histogram.ns" "ns" histogram;
    m "obs.sampler_tick.ns" "ns" tick;
    m "obs.sampler_tick.words" "words" tick_w;
  ]
