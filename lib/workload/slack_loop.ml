module Future = Futures.Future
module R = Fl.Registry
module D = Distribution

type 'i t = {
  name : string;
  make : unit -> 'i;
  handle : 'i -> Rng.t -> (unit -> unit -> unit) * (unit -> unit);
  cas_count : 'i -> int;
  drain : 'i -> unit;
}

(* Every [step] below builds its force thunk as a literal closure: a
   partial application of a shared helper would cost one more word per
   operation. *)

let stack (impl : R.stack_impl) =
  {
    name = impl.s_name;
    make = impl.s_make;
    handle =
      (fun i rng ->
        let o = i.R.s_handle () in
        ( (fun () ->
            match D.stack_op rng with
            | D.Push v ->
                let f = o.R.s_push v in
                fun () -> Future.force f
            | D.Pop ->
                let f = o.R.s_pop () in
                fun () -> ignore (Future.force f)),
          o.R.s_flush ));
    cas_count = (fun i -> i.R.s_cas_count ());
    drain = (fun i -> i.R.s_drain ());
  }

let queue_with draw (impl : R.queue_impl) =
  {
    name = impl.q_name;
    make = impl.q_make;
    handle =
      (fun i rng ->
        let o = i.R.q_handle () in
        ( (fun () ->
            match draw rng with
            | D.Enq v ->
                let f = o.R.q_enq v in
                fun () -> Future.force f
            | D.Deq ->
                let f = o.R.q_deq () in
                fun () -> ignore (Future.force f)),
          o.R.q_flush ));
    cas_count = (fun i -> i.R.q_cas_count ());
    drain = (fun i -> i.R.q_drain ());
  }

let queue = queue_with D.queue_op

let asymmetric_queue =
  queue_with (fun rng ->
      if Rng.below rng 5 < 4 then D.Enq (Rng.below rng 1_000_000) else D.Deq)

let key_range = D.default_key_range

let prefill_set (inst : R.set_instance) =
  let o = inst.l_handle () in
  (* Ascending insertion order gives every implementation the same node
     layout; otherwise the combining implementations' bulk prefill would
     hand them a cache-locality head start before measurement begins. *)
  let keys = List.sort compare (D.initial_keys ~key_range ~seed:2014 ()) in
  let fs = List.map o.l_insert keys in
  o.l_flush ();
  inst.l_drain ();
  List.iter (fun f -> ignore (Future.force f)) fs;
  inst

(* [draw ()] runs once per handle, so a Zipf table is built per worker. *)
let set_with draw (impl : R.set_impl) =
  {
    name = impl.l_name;
    make = (fun () -> prefill_set (impl.l_make ()));
    handle =
      (fun i rng ->
        let o = i.R.l_handle () in
        let draw = draw () in
        ( (fun () ->
            let f =
              match draw rng with
              | D.Insert k -> o.R.l_insert k
              | D.Remove k -> o.R.l_remove k
              | D.Contains k -> o.R.l_contains k
            in
            fun () -> ignore (Future.force f)),
          o.R.l_flush ));
    cas_count = (fun i -> i.R.l_cas_count ());
    drain = (fun i -> i.R.l_drain ());
  }

let set = set_with (fun () -> D.list_op ~key_range)

let zipf_set =
  set_with (fun () -> D.list_op_skewed (D.zipf ~n:key_range ()))

let measure ?order ~seed ~slack ~threads ~repeats ~ops w =
  let worker inst ~thread ~ops =
    let step, flush = w.handle inst (Rng.create ~seed ~stream:thread) in
    let sl = Fl.Slack.create ?order slack in
    for _ = 1 to ops do
      Fl.Slack.note sl (step ())
    done;
    Fl.Slack.drain sl;
    flush ()
  in
  Runner.run ~threads ~repeats ~ops_per_thread:ops ~setup:w.make ~worker
    ~cas_total:w.cas_count ~teardown:w.drain ()
