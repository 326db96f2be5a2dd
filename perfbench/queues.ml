(* The queues every workload measures, behind one int-valued shape.
   Values are immediate ints, so the only allocation in a measured loop
   is the queue's own. *)

type q = {
  enq : int -> bool;
  deq : unit -> int option;
  exact_empty : bool;
      (** whether an empty verdict is a linearization point.  The fabric's
          dequeue sweeps its shards one after another, so under
          concurrent operations it may report empty while items wait
          (see [Fabric.Queue_fabric.S.try_dequeue]); its checks are
          conservation and per-producer order only. *)
}

(* The end-to-end metrics carry one figure per key, in this order.  The
   native table's "segmented" queue has no simulated twin, so it is
   measured per layer only. *)
let keys = [ "ms"; "two-lock"; "single-lock"; "scq"; "fabric" ]

let unbounded (module Q : Core.Queue_intf.S) =
  let q = Q.create () in
  {
    enq =
      (fun v ->
        Q.enqueue q v;
        true);
    deq = (fun () -> Q.dequeue q);
    exact_empty = true;
  }

let bounded (module Q : Core.Queue_intf.BOUNDED) ~capacity =
  let q = Q.create ~capacity () in
  { enq = Q.try_enqueue q; deq = (fun () -> Q.try_dequeue q); exact_empty = true }

let of_fabric f =
  let module F = Fabric.Queue_fabric in
  {
    enq = (fun v -> match F.try_enqueue f v with Ok () -> true | Error _ -> false);
    deq = (fun () -> match F.try_dequeue f with Ok v -> Some v | Error _ -> None);
    exact_empty = false;
  }

(* The closed-loop shape: the registry's queues as a library user takes
   them; "fabric" is the registry adapter (segmented shards, routed by
   the calling domain). *)
let native key =
  match key with
  | "scq" ->
      bounded (Harness.Registry.find_native_bounded "scq") ~capacity:1024
  | "fabric" ->
      { (unbounded (Harness.Registry.find_native "fabric")) with exact_empty = false }
  | k -> unbounded (Harness.Registry.find_native k)

(* The serving shape: "fabric" is a deployment's fabric
   ([default_config]: 8 bounded SCQ shards, Shed policy, breakers), and
   the bare SCQ ring is large enough that a consumer stall of tens of
   milliseconds at the offered rate cannot fill it. *)
let served key =
  match key with
  | "fabric" ->
      let f = Fabric.Queue_fabric.create () in
      (of_fabric f, Some f)
  | "scq" ->
      ( bounded (Harness.Registry.find_native_bounded "scq") ~capacity:16384,
        None )
  | k -> (unbounded (Harness.Registry.find_native k), None)
