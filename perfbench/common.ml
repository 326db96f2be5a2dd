(* Shared machinery of the benchmark: the clock, exact statistics over
   raw samples, the parked worker domain, in-memory spans, run results
   and the result line. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Exact statistics.  Every quantile comes from the raw samples; nothing
   goes through Obs.Histogram, whose log2 buckets are a layer under test
   and off by up to 2x. *)

let sort_ints (a : int array) = Array.sort (fun (x : int) y -> compare x y) a

(* nearest-rank quantile of a sorted array *)
let quantile_sorted (s : int array) q =
  let n = Array.length s in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median (l : float list) =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The interquartile mean: the mean of the middle half of the values.
   Repetitions are summarised with it rather than the median because the
   machine drifts between a faster and a slower state within a run; the
   median jumps between the two as their shares cross one half, while
   this moves in proportion to them, and it still ignores the stalled
   quarter at either end. *)
let iq_mean (l : float list) =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n < 4 then median l
  else begin
    let lo = n / 4 and hi = n - (n / 4) in
    let s = ref 0. in
    for i = lo to hi - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int (hi - lo)
  end

(* The fastest tenth: the 0.1-quantile (nearest rank) of repetitions
   that all do the same deterministic work.  Their wall time then varies
   only with the machine, which can slow the work but not speed it up,
   so the fast rounds show its cost with the least interference, and the
   tenth rather than the single fastest keeps one lucky round out. *)
let fast_decile (l : float list) =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (0.1 *. float_of_int n)) - 1)))

(* A growable int buffer for per-run sample pools. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    sort_ints s;
    s
end

(* ------------------------------------------------------------------ *)
(* The worker domain.  Spawned once per process, before any set-up is
   timed; between jobs it spins briefly and then parks on a condition
   variable, so a parked worker costs no CPU while the main domain sets
   up.  Jobs are published through [gen]; plain writes made before an
   atomic write are visible to the domain that reads it. *)

module Worker = struct
  type t = {
    mutable job : unit -> unit;
    mutable error : exn option;
    gen : int Atomic.t;
    fin : int Atomic.t;
    m : Mutex.t;
    c : Condition.t;
    mutable dom : unit Domain.t option;
  }

  exception Quit

  (* ~5 ms of cpu_relax before parking *)
  let spin_limit = 150_000

  let rec wait w seen spins =
    let g = Atomic.get w.gen in
    if g <> seen then g
    else if spins > 0 then begin
      Domain.cpu_relax ();
      wait w seen (spins - 1)
    end
    else begin
      Mutex.lock w.m;
      while Atomic.get w.gen = seen do
        Condition.wait w.c w.m
      done;
      Mutex.unlock w.m;
      Atomic.get w.gen
    end

  let rec loop w seen =
    let g = wait w seen spin_limit in
    match w.job () with
    | () ->
        Atomic.set w.fin g;
        loop w g
    | exception Quit -> Atomic.set w.fin g
    | exception e ->
        w.error <- Some e;
        Atomic.set w.fin g;
        loop w g

  let submit w f =
    w.job <- f;
    Mutex.lock w.m;
    let g = Atomic.fetch_and_add w.gen 1 + 1 in
    Condition.broadcast w.c;
    Mutex.unlock w.m;
    g

  let await w g =
    while Atomic.get w.fin < g do
      Domain.cpu_relax ()
    done;
    match w.error with
    | Some e ->
        w.error <- None;
        raise e
    | None -> ()

  let run w f = await w (submit w f)

  (* The process never holds more domains than the machine has
     processors: the main domain plus this one. *)
  let spawn () =
    let nproc = Domain.recommended_domain_count () in
    if nproc < 2 then
      failwith
        (Printf.sprintf
           "refusing to start: this workload needs 2 threads and nproc is %d"
           nproc);
    let w =
      {
        job = ignore;
        error = None;
        gen = Atomic.make 0;
        fin = Atomic.make 0;
        m = Mutex.create ();
        c = Condition.create ();
        dom = None;
      }
    in
    w.dom <- Some (Domain.spawn (fun () -> loop w 0));
    w

  let stop w =
    match w.dom with
    | None -> ()
    | Some d ->
        ignore (submit w (fun () -> raise Quit));
        Domain.join d;
        w.dom <- None
end

(* ------------------------------------------------------------------ *)
(* Spans recorded by the benchmark's own code around each layer call.
   Each domain writes its own buffer; names are interned on the main
   domain before any run.  A span's parent is an index into the same
   buffer (-1 for a root); spans of one operation share its [id], across
   domains too. *)

module Spans = struct
  let names : (string, int) Hashtbl.t = Hashtbl.create 16
  let by_id : string array ref = ref [||]

  let intern s =
    match Hashtbl.find_opt names s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names s i;
        by_id := Array.append !by_id [| s |];
        i

  type buf = {
    tid : int;
    mutable n : int;
    name : int array;
    t0 : int array;
    t1 : int array;
    parent : int array;
    id : int array;
  }

  let create ~tid cap =
    {
      tid;
      n = 0;
      name = Array.make cap 0;
      t0 = Array.make cap 0;
      t1 = Array.make cap 0;
      parent = Array.make cap (-1);
      id = Array.make cap 0;
    }

  (* Opens a span at [t]; -1 once the buffer is full (the span is
     dropped, and [close] ignores it). *)
  let open_ b ~name ~id ~parent t =
    let i = b.n in
    if i >= Array.length b.name then -1
    else begin
      b.name.(i) <- name;
      b.t0.(i) <- t;
      b.t1.(i) <- t;
      b.parent.(i) <- parent;
      b.id.(i) <- id;
      b.n <- i + 1;
      i
    end

  let close b i t = if i >= 0 then b.t1.(i) <- t

  (* Self time = duration minus the time covered by child spans.
     Returns per-name (count, total self ns), and the mean self time of
     root spans (the benchmark's own code) and of child spans (the calls
     into a layer). *)
  type summary = {
    per_name : (string * int * int) list;
    spans : int;
    root_self_ns : float;
    call_ns : float;
  }

  let summarize bufs =
    let n_names = Array.length !by_id in
    let cnt = Array.make n_names 0 and self = Array.make n_names 0 in
    let rc = ref 0 and rs = ref 0 and cc = ref 0 and cs = ref 0 in
    List.iter
      (fun b ->
        let child = Array.make b.n 0 in
        for i = 0 to b.n - 1 do
          let p = b.parent.(i) in
          if p >= 0 then child.(p) <- child.(p) + (b.t1.(i) - b.t0.(i))
        done;
        for i = 0 to b.n - 1 do
          let s = b.t1.(i) - b.t0.(i) - child.(i) in
          let k = b.name.(i) in
          cnt.(k) <- cnt.(k) + 1;
          self.(k) <- self.(k) + s;
          if b.parent.(i) < 0 then begin
            incr rc;
            rs := !rs + s
          end
          else begin
            incr cc;
            cs := !cs + s
          end
        done)
      bufs;
    let mean s c = if c = 0 then 0. else float_of_int s /. float_of_int c in
    {
      per_name =
        List.filter_map
          (fun k -> if cnt.(k) = 0 then None else Some (!by_id.(k), cnt.(k), self.(k)))
          (List.init n_names Fun.id);
      spans = !rc + !cc;
      root_self_ns = mean !rs !rc;
      call_ns = mean !cs !cc;
    }

  (* Chrome trace (catapult) JSON: one complete ("X") event per span,
     timestamps in µs from the earliest span. *)
  let write_chrome path bufs =
    let base =
      List.fold_left
        (fun acc b ->
          let m = ref acc in
          for i = 0 to b.n - 1 do
            if b.t0.(i) < !m then m := b.t0.(i)
          done;
          !m)
        max_int bufs
    in
    let oc = open_out path in
    output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    let first = ref true in
    List.iter
      (fun b ->
        if not !first then output_char oc ',';
        first := false;
        Printf.fprintf oc
          "\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
          b.tid
          (if b.tid = 0 then "main" else "worker");
        for i = 0 to b.n - 1 do
          Printf.fprintf oc
            ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
            !by_id.(b.name.(i)) b.tid
            (float_of_int (b.t0.(i) - base) /. 1e3)
            (float_of_int (b.t1.(i) - b.t0.(i)) /. 1e3)
            b.id.(i) b.parent.(i)
        done)
      bufs;
    output_string oc "\n]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Run context and results *)

type ctx = {
  seed : int;
  seconds : float;  (** measuring budget of one run *)
  worker : Worker.t option;
  trace : (Spans.buf * Spans.buf) option;  (** main's and worker's spans *)
}

(* Sample one operation in [trace_every] when tracing. *)
let trace_every = 1024

(* When tracing, odd rounds record spans and even rounds do not, so the
   two halves see the same drift of the machine and their difference is
   the tracing overhead. *)
let spans_for ctx round = if round land 1 = 1 then ctx.trace else None

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** from the untraced rounds *)
  traced : metric list;  (** the same figures from the traced rounds *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let m name unit_ value = { name; value; unit_ }

(* Set-up is timed [setup_reps] times before the run, then once more
   about every [setup_every_ns] between its rounds, and reported as the
   median of all of these.  One set-up lasts milliseconds, so timings
   taken only at the start would sample the machine's speed at a single
   moment; spread over the run, they sample it as the rounds do.  The
   state measured is that of the last set-up before the run; the later
   ones are thrown away.  Each set-up starts from a collected heap, so
   the garbage of the one before does not decide how much collection it
   pays for. *)
let setup_reps = 9
let setup_every_ns = 1_000_000_000

type 'a setups = { setup : unit -> 'a; mutable times : float list; mutable next : int }

let time_setup f =
  Gc.full_major ();
  let t0 = now () in
  let st = f () in
  (st, secs (now () - t0))

let timed_setups f =
  let s = { setup = f; times = []; next = 0 } and last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    let st, dt = time_setup f in
    s.times <- dt :: s.times;
    last := Some st
  done;
  s.next <- now () + setup_every_ns;
  (Option.get !last, s)

(* Between rounds: one more, throwaway, set-up when one is due. *)
let retime s =
  if now () >= s.next then begin
    let _, dt = time_setup s.setup in
    s.times <- dt :: s.times;
    s.next <- now () + setup_every_ns
  end

let setup_seconds s = median s.times

(* Run [f] until [seconds] have elapsed, in whole rounds, and at least
   two (one of each parity). *)
let rounds_for seconds f =
  let t_end = now () + int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  while !k < 2 || now () < t_end do
    f !k;
    incr k
  done;
  !k

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~correct r =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed (String.concat ", " ms)
