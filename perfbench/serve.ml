(* The open loop, run by the traced ledger: the main domain fires seeded
   Poisson arrivals on the world's schedule, whether or not earlier
   items were served, and one consumer domain dequeues with the serving
   loop of [Harness.Open_loop].  An item is its arrival index; its
   sojourn is timed from when it was due, so a generator stall counts
   against the items it delays.  Telemetry (Obs.Control and Obs.Flight)
   is on, as a deployment would run it. *)

open Common

let rate = 100_000.
let round_arrivals = 10_000

(* The arrival schedule: offsets in ns from the round start. *)
let schedule ~seed =
  (Harness.Open_loop.schedule
     {
       Harness.Open_loop.default with
       seed = Int64.of_int seed;
       rate;
       arrivals = round_arrivals;
       producers = 1;
       consumers = 1;
     }).(0)

type target = {
  key : string;
  q : Queues.q;
  fab : int Fabric.Queue_fabric.t option;
  soj : Samples.t;  (** sojourn of every accepted item, ns *)
  late : Samples.t;  (** generator lateness of every arrival, ns *)
  mutable p50s : float list;  (** each untraced round's exact p50 sojourn, ns *)
  mutable failed : int;
  mutable items : int;
  mutable polls : int;  (** dequeue calls, served or not *)
  sp_arrive : int;
  sp_enq : int;
  sp_serve : int;
  sp_deq : int;
}

let target key =
  let q, fab = Queues.served key in
  {
    key;
    q;
    fab;
    soj = Samples.create ();
    late = Samples.create ();
    p50s = [];
    failed = 0;
    items = 0;
    polls = 0;
    sp_arrive = Spans.intern ("arrive:" ^ key);
    sp_enq = Spans.intern ("enqueue:" ^ key);
    sp_serve = Spans.intern ("serve:" ^ key);
    sp_deq = Spans.intern ("dequeue:" ^ key);
  }

(* Per-round scratch shared by the two domains: the consumer writes
   [soj_r] and [seen], the producer [late_r] and [admitted]; the main
   domain reads them after the round. *)
type round = {
  off : int array;
  soj_r : int array;
  late_r : int array;
  seen : Bytes.t;
  admitted : Bytes.t;
  accepted : int Atomic.t;  (** -1 while the producer runs *)
  mutable c_got : int;
  mutable c_bad : int;
  mutable c_polls : int;
}

let new_round off =
  let n = Array.length off in
  {
    off;
    soj_r = Array.make n 0;
    late_r = Array.make n 0;
    seen = Bytes.make n '\000';
    admitted = Bytes.make n '\000';
    accepted = Atomic.make (-1);
    c_got = 0;
    c_bad = 0;
    c_polls = 0;
  }

(* Give up on missing items after this long without progress once the
   producer is done; the round check then counts them as failed. *)
let stall_limit_ns = 2_000_000_000

let consume t r ~t0 ~spans =
  let n = Array.length r.off and mask = trace_every - 1 in
  let got = ref 0 and bad = ref 0 and polls = ref 0 and finished = ref false in
  let idle_since = ref 0 in
  let take i t_ret =
    if i < 0 || i >= n || Bytes.get r.seen i <> '\000' then incr bad
    else begin
      let s = t_ret - (t0 + r.off.(i)) in
      if s < 0 then incr bad;
      Bytes.set r.seen i '\001';
      r.soj_r.(i) <- s;
      incr got
    end
  in
  while not !finished do
    incr polls;
    let x =
      match spans with
      | None -> (
          match t.q.deq () with
          | Some i ->
              take i (now ());
              true
          | None -> false)
      | Some b -> (
          let tc = now () in
          match t.q.deq () with
          | Some i ->
              let t_ret = now () in
              if i land mask = 0 then begin
                let root = Spans.open_ b ~name:t.sp_serve ~id:i ~parent:(-1) tc in
                let c = Spans.open_ b ~name:t.sp_deq ~id:i ~parent:root tc in
                Spans.close b c t_ret;
                take i t_ret;
                Spans.close b root (now ())
              end
              else take i t_ret;
              true
          | None -> false)
    in
    if x then idle_since := 0
    else begin
      (* the serving loop of [Harness.Open_loop]: one pause, then poll again *)
      Domain.cpu_relax ();
      let a = Atomic.get r.accepted in
      if a >= 0 then
        if !got >= a then finished := true
        else begin
          let tn = now () in
          if !idle_since = 0 then idle_since := tn
          else if tn - !idle_since > stall_limit_ns then finished := true
        end
    end
  done;
  r.c_got <- !got;
  r.c_bad <- !bad;
  r.c_polls <- !polls

let produce t r ~t0 ~spans =
  let n = Array.length r.off and mask = trace_every - 1 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let due = t0 + r.off.(i) in
    let tt = ref (now ()) in
    while !tt < due do
      tt := now ()
    done;
    r.late_r.(i) <- !tt - due;
    let ok =
      match spans with
      | Some b when i land mask = 0 ->
          let root = Spans.open_ b ~name:t.sp_arrive ~id:i ~parent:(-1) !tt in
          let c = Spans.open_ b ~name:t.sp_enq ~id:i ~parent:root (now ()) in
          let ok = t.q.enq i in
          Spans.close b c (now ());
          Spans.close b root (now ());
          ok
      | _ -> t.q.enq i
    in
    if ok then begin
      Bytes.set r.admitted i '\001';
      incr acc
    end
  done;
  !acc

(* One more item from a quiescent queue: the fabric is drained raw,
   outside its dequeue engine, so an open breaker cannot hide an item. *)
let leftover_item t =
  match t.fab with Some f -> Fabric.Queue_fabric.drain_one f | None -> t.q.deq ()

(* Lead time between publishing a round and its first due instant, so
   the consumer is already polling when arrivals start. *)
let lead_ns = 200_000

(* One round of [Array.length off] arrivals through [t]. *)
let round w t r ~spans =
  let n = Array.length r.off in
  Bytes.fill r.seen 0 n '\000';
  Bytes.fill r.admitted 0 n '\000';
  Atomic.set r.accepted (-1);
  let t0 = now () + lead_ns in
  let wspans = Option.map snd spans and mspans = Option.map fst spans in
  let g = Worker.submit w (fun () -> consume t r ~t0 ~spans:wspans) in
  let acc = produce t r ~t0 ~spans:mspans in
  Atomic.set r.accepted acc;
  Worker.await w g;
  (* every admitted arrival was served exactly once, and nothing else;
     the queue, now quiescent, holds nothing more *)
  let refused = n - acc in
  let mismatched = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get r.seen i <> Bytes.get r.admitted i then incr mismatched
  done;
  let leftover = ref 0 in
  let rec drain () =
    match leftover_item t with
    | Some _ ->
        incr leftover;
        drain ()
    | None -> ()
  in
  drain ();
  let failed = refused + !mismatched + r.c_bad + abs (acc - r.c_got) + !leftover in
  t.failed <- t.failed + failed;
  t.items <- t.items + n;
  t.polls <- t.polls + r.c_polls;
  let round_soj = Samples.create () in
  for i = 0 to n - 1 do
    Samples.add t.late r.late_r.(i);
    if Bytes.get r.admitted i = '\001' then begin
      Samples.add t.soj r.soj_r.(i);
      Samples.add round_soj r.soj_r.(i)
    end
  done;
  let p50 = float_of_int (quantile_sorted (Samples.sorted round_soj) 0.5) in
  if Option.is_none spans then t.p50s <- p50 :: t.p50s

let with_telemetry f =
  Obs.Control.enable ();
  Obs.Flight.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.disable ();
      Obs.Control.disable ())
    f

(* The serving ledger of the traced run: [rounds] rounds of every queue
   in turn, odd rounds recording spans into [spans].  Per queue it
   reports the interquartile mean of the untraced rounds' exact p50
   sojourns.  On the [default_config] fabric it also reports the
   dequeue engine's outcomes per served item, the sojourn tails and the
   generator's lateness, each with its sample count.  [F.outcomes] sums
   every shard's enqueue engine and the dequeue engine, so the dequeue
   engine's own figures are that sum less the shards' [F.shard_outcomes].
   Returns (failed checks, arrivals, metrics, notes). *)
let ledger w ~seed ~spans ~rounds =
  with_telemetry @@ fun () ->
  let module F = Fabric.Queue_fabric in
  let open Resilience.Resilient in
  let ts = List.map target Queues.keys in
  let t = List.find (fun t -> t.key = "fabric") ts in
  let fab = Option.get t.fab in
  let deq_outcomes () =
    Array.fold_left
      (fun (a : outcomes) (e : outcomes) ->
        {
          timeouts = a.timeouts - e.timeouts;
          sheds = a.sheds - e.sheds;
          rejections = a.rejections - e.rejections;
          breaker_trips = a.breaker_trips - e.breaker_trips;
          breaker_recoveries = a.breaker_recoveries - e.breaker_recoveries;
        })
      (F.outcomes fab) (F.shard_outcomes fab)
  in
  let r = new_round (schedule ~seed) in
  let o0 = deq_outcomes () and dm = F.dequeue_metrics fab in
  let e0 = Obs.Counter.value dm.Obs.Metrics.empty_dequeues in
  let b0 = (Locks.Probe.totals ()).Locks.Probe.backoffs in
  for i = 1 to rounds do
    List.iter (fun t -> round w t r ~spans:(if i land 1 = 1 then spans else None)) ts
  done;
  let o1 = deq_outcomes () in
  let e1 = Obs.Counter.value dm.Obs.Metrics.empty_dequeues in
  let b1 = (Locks.Probe.totals ()).Locks.Probe.backoffs in
  let per_item x = float_of_int x /. float_of_int t.items in
  let s = Samples.sorted t.soj and l = Samples.sorted t.late in
  let us a q = float_of_int (quantile_sorted a q) /. 1e3 in
  ( List.fold_left (fun a t -> a + t.failed) 0 ts,
    List.fold_left (fun a t -> a + t.items) 0 ts,
    List.map
      (fun t -> m ("serve." ^ t.key ^ ".sojourn_p50_us") "us" (iq_mean t.p50s /. 1e3))
      ts
    @ [
        m "resilience.deq.breaker_trips" "count"
          (float_of_int (o1.breaker_trips - o0.breaker_trips));
        m "resilience.deq.timeouts" "count" (float_of_int (o1.timeouts - o0.timeouts));
        m "resilience.deq.rejections_per_item" "ratio"
          (per_item (o1.rejections - o0.rejections));
        m "resilience.deq.empty_attempts_per_item" "ratio" (per_item (e1 - e0));
        m "resilience.deq.backoffs_per_item" "ratio" (per_item (b1 - b0));
        m "resilience.deq.useful_ratio" "ratio"
          (float_of_int (Array.length s) /. float_of_int (max 1 t.polls));
        m "gen.late_p50_us" "us" (us l 0.5);
        m "gen.late_p99_us" "us" (us l 0.99);
        m "serve.sojourn_p99_us" "us" (us s 0.99);
        m "serve.sojourn_p999_us" "us" (us s 0.999);
        m "serve.samples" "count" (float_of_int (Array.length s));
      ],
    Printf.sprintf "serve ledger: %d rounds x %d queues x %d Poisson arrivals at %.0f/s, 1 consumer"
      rounds (List.length ts) round_arrivals rate
    :: List.map
         (fun t ->
           let s = Samples.sorted t.soj and l = Samples.sorted t.late in
           Printf.sprintf
             "  %-12s sojourn p50 %8.2f p99 %9.2f us (n=%d)  generator late p50 %8.2f p99 %9.2f us  failed %d"
             t.key
             (float_of_int (quantile_sorted s 0.5) /. 1e3)
             (float_of_int (quantile_sorted s 0.99) /. 1e3)
             (Array.length s)
             (float_of_int (quantile_sorted l 0.5) /. 1e3)
             (float_of_int (quantile_sorted l 0.99) /. 1e3)
             t.failed)
         ts )
