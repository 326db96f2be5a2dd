(* The closed loop: every domain repeats enqueue -> dequeue on one shared
   queue that holds a standing backlog, so Head and Tail sit on
   different nodes (the paper's two contention points).  Each value is
   tagged with its producer and a per-producer sequence number; every
   consumer checks that each producer's values reach it in order, and a
   final drain checks conservation per producer. *)

open Common

let tag_shift = 40
let seq_mask = (1 lsl tag_shift) - 1
let prefill_tag = 2
let backlog = 256

(* pairs per domain in one timed repetition, and in the warm-up pass *)
let rep_pairs = 5_000
let warm_pairs = 1_000

(* Hot per-producer counters live at [pad + producer], so the arrays of
   the two domains never share a cache line. *)
let pad = 8

(* One domain's state on one queue: its consumer-side order and
   conservation counters, and its producer-side sequence and sums.
   Written only by the domain it belongs to. *)
type side = {
  last : int array;
  cnt : int array;
  sum : int array;
  mutable next : int;
  mutable ecnt : int;
  mutable esum : int;
  mutable failed : int;
  mutable empties : int;  (** empty verdicts a non-exact queue gave *)
  mutable words : float;
}

let new_side () =
  let a () = Array.make ((2 * pad) + 3) 0 in
  {
    last = a ();
    cnt = a ();
    sum = a ();
    next = 1;
    ecnt = 0;
    esum = 0;
    failed = 0;
    empties = 0;
    words = 0.;
  }

type target = {
  key : string;
  q : Queues.q;
  sides : side array;  (** per domain: 0 = main, 1 = worker *)
  mutable pre_cnt : int;
  mutable pre_sum : int;
  sp_pair : int;  (** interned span names *)
  sp_enq : int;
  sp_deq : int;
}

let target key q =
  {
    key;
    q;
    sides = [| new_side (); new_side () |];
    pre_cnt = 0;
    pre_sum = 0;
    sp_pair = Spans.intern ("pair:" ^ key);
    sp_enq = Spans.intern ("enqueue:" ^ key);
    sp_deq = Spans.intern ("dequeue:" ^ key);
  }

let prefill t =
  for s = 1 to backlog do
    let v = (prefill_tag lsl tag_shift) lor (t.pre_cnt + s) in
    if t.q.enq v then begin
      t.pre_sum <- t.pre_sum + t.pre_cnt + s
    end
    else t.sides.(0).failed <- t.sides.(0).failed + 1
  done;
  t.pre_cnt <- t.pre_cnt + backlog

(* Record a dequeued value in the consumer's order/conservation state;
   [false] when it breaks per-producer order or carries no known tag. *)
let accept (s : side) x =
  let p = x lsr tag_shift and sq = x land seq_mask in
  if p > prefill_tag || sq <= s.last.(pad + p) then false
  else begin
    s.last.(pad + p) <- sq;
    s.cnt.(pad + p) <- s.cnt.(pad + p) + 1;
    s.sum.(pad + p) <- s.sum.(pad + p) + sq;
    true
  end

(* [r] pairs on one domain.  With [spans], one pair in [trace_every] is
   recorded: a root span for the pair (the benchmark's own code) and a
   child span around each call into the queue. *)
let run_side t ~me ~r ~spans =
  let s = t.sides.(me) and q = t.q in
  let failed = ref 0 and empties = ref 0 and en = ref 0 and es = ref 0 in
  (* the backlog never drains, so an exact queue never reports empty *)
  let took = function
    | Some x -> if not (accept s x) then incr failed
    | None -> if q.exact_empty then incr failed else incr empties
  in
  let seq0 = s.next in
  let mask = trace_every - 1 in
  let w0 = Gc.minor_words () in
  for i = 0 to r - 1 do
    let seq = seq0 + i in
    let v = (me lsl tag_shift) lor seq in
    match spans with
    | Some b when i land mask = 0 ->
        let root = Spans.open_ b ~name:t.sp_pair ~id:seq ~parent:(-1) (now ()) in
        let c = Spans.open_ b ~name:t.sp_enq ~id:seq ~parent:root (now ()) in
        let ok = q.enq v in
        Spans.close b c (now ());
        if ok then begin
          incr en;
          es := !es + seq
        end
        else incr failed;
        let c = Spans.open_ b ~name:t.sp_deq ~id:seq ~parent:root (now ()) in
        let x = q.deq () in
        Spans.close b c (now ());
        took x;
        Spans.close b root (now ())
    | _ -> (
        if q.enq v then begin
          incr en;
          es := !es + seq
        end
        else incr failed;
        took (q.deq ()))
  done;
  s.words <- s.words +. (Gc.minor_words () -. w0);
  s.next <- seq0 + r;
  s.ecnt <- s.ecnt + !en;
  s.esum <- s.esum + !es;
  s.failed <- s.failed + !failed;
  s.empties <- s.empties + !empties

let go = Atomic.make false
let ready = Atomic.make false

(* One timed repetition on both domains, barrier-started: ns per pair
   over the pairs both domains completed. *)
let rep w t ~r ~spans =
  Atomic.set go false;
  Atomic.set ready false;
  let wspans = Option.map snd spans and mspans = Option.map fst spans in
  let g =
    Worker.submit w (fun () ->
        Atomic.set ready true;
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        run_side t ~me:1 ~r ~spans:wspans)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let t0 = now () in
  run_side t ~me:0 ~r ~spans:mspans;
  Worker.await w g;
  float_of_int (now () - t0) /. float_of_int (2 * r)

(* One timed single-domain repetition (the per-layer ledger): ns and
   minor words per pair. *)
let solo_rep t ~r =
  let w0 = t.sides.(0).words in
  let t0 = now () in
  run_side t ~me:0 ~r ~spans:None;
  let dt = now () - t0 in
  ( float_of_int dt /. float_of_int r,
    (t.sides.(0).words -. w0) /. float_of_int r )

(* Drain on the main domain (which keeps checking order), then compare
   what each producer put in with what the consumers took out.  Returns
   the number of failed checks over the whole life of the queue. *)
let audit t =
  let s0 = t.sides.(0) in
  let rec drain () =
    match t.q.deq () with
    | Some x ->
        if not (accept s0 x) then s0.failed <- s0.failed + 1;
        drain ()
    | None -> ()
  in
  drain ();
  let produced p =
    if p = prefill_tag then (t.pre_cnt, t.pre_sum)
    else (t.sides.(p).ecnt, t.sides.(p).esum)
  in
  let lost = ref 0 in
  for p = 0 to prefill_tag do
    let pc, ps = produced p in
    let cc = Array.fold_left (fun a s -> a + s.cnt.(pad + p)) 0 t.sides in
    let cs = Array.fold_left (fun a s -> a + s.sum.(pad + p)) 0 t.sides in
    if pc <> cc || ps <> cs then lost := !lost + max 1 (abs (pc - cc))
  done;
  !lost + Array.fold_left (fun a s -> a + s.failed) 0 t.sides

let words_of t = Array.fold_left (fun a s -> a +. s.words) 0. t.sides

let run (ctx : ctx) =
  let w = Option.get ctx.worker in
  let setup () =
    let ts = List.map (fun k -> target k (Queues.native k)) Queues.keys in
    List.iter prefill ts;
    (* wake the parked worker *)
    Worker.run w ignore;
    List.iter (fun t -> ignore (rep w t ~r:warm_pairs ~spans:None)) ts;
    ts
  in
  let warm, setups = timed_setups setup in
  let keys = Array.of_list Queues.keys in
  let n = Array.length keys in
  let per = Array.make n [] and per_traced = Array.make n [] in
  let audits = Array.of_list (List.map audit warm) in
  let empties = ref 0 and words = ref 0. in
  let rounds =
    rounds_for ctx.seconds (fun i ->
        retime setups;
        let spans = spans_for ctx i in
        let per = if Option.is_none spans then per else per_traced in
        Array.iteri
          (fun q key ->
            (* A fresh queue for every repetition: where its hot fields
               fall relative to cache lines differs from one queue to the
               next, and a run averages over many of them instead of
               keeping whichever layout its set-up happened to get. *)
            let t = target key (Queues.native key) in
            prefill t;
            per.(q) <- rep w t ~r:rep_pairs ~spans :: per.(q);
            words := !words +. words_of t;
            empties := !empties + Array.fold_left (fun a s -> a + s.empties) 0 t.sides;
            audits.(q) <- audits.(q) + audit t)
          keys)
  in
  let failed = Array.fold_left ( + ) 0 audits in
  let pairs = rounds * n * 2 * rep_pairs in
  let per_queue per =
    Array.to_list (Array.mapi (fun i k -> m (k ^ ".ns_per_op") "ns" (iq_mean per.(i))) keys)
  in
  {
    attempted = pairs;
    failed;
    traced = (if Option.is_none ctx.trace then [] else per_queue per_traced);
    metrics =
      per_queue per
      @ [
          m "alloc_words_per_op" "words" (!words /. float_of_int pairs);
          m "setup_s" "s" (setup_seconds setups);
        ];
    notes =
      [
        Printf.sprintf "pairs: %d rounds x %d queues x %d pairs on 2 domains, backlog %d"
          rounds n (2 * rep_pairs) backlog;
        Printf.sprintf "failed checks: %s"
          (String.concat ", "
             (Array.to_list
                (Array.mapi (fun i k -> Printf.sprintf "%s %d" k audits.(i)) keys)));
        Printf.sprintf "fabric empty verdicts with a %d-item backlog: %d" backlog !empties;
      ];
  }
