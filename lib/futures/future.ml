type 'a state =
  | Pending
  | Ready of 'a
  | Terminated of exn
      (* Terminal failure: the exception every wait on this future raises.
         [Cancelled] when the owner withdrew the pending op, [Broken e]
         when another thread poisoned an orphan. *)

(* One heap block per future. [state] is field 0 of the record (tag 0,
   scannable) and is only ever read or CASed through [cell], which views
   the block as the one-field ['a state Atomic.t] that OCaml 5 atomics
   are — the layout of [Lockfree.Harris_kv]'s nodes. It is mutable so
   the compiler never shares, lifts or caches a future; no code assigns
   it directly. *)
type 'a t = {
  mutable state : 'a state; [@warning "-69"]
  (* Fixed at creation, run by [force] on the owner thread with the
     future itself, so one closure can serve every future of a handle.
     [no_eval] when there is none. *)
  evaluator : 'a t -> unit;
  (* Obs birth stamp (monotonic ns); 0 = created while obs was off, so
     terminal transitions never report a garbage pendingness. *)
  born : int;
}

let cell (t : 'a t) : 'a state Atomic.t = Obj.magic t

(* The "no evaluator" sentinel, recognised by physical equality: a static
   closure, so storing it allocates nothing. *)
let no_eval _ = ()

exception Already_fulfilled
exception Stuck
exception Timeout
exception Cancelled
exception Broken of exn
exception Orphaned
exception Rejected

let create () =
  { state = Pending; evaluator = no_eval; born = Obs.future_created () }

let create_with ~evaluator =
  { state = Pending; evaluator; born = Obs.future_created () }

(* Born fulfilled: no pending window, so nothing to observe. *)
let of_value v = { state = Ready v; evaluator = no_eval; born = 0 }

let try_fulfil t v =
  Faults.point "future.fulfil";
  let won = Atomic.compare_and_set (cell t) Pending (Ready v) in
  if won then Obs.future_fulfilled ~born:t.born;
  won

let fulfil t v = if not (try_fulfil t v) then raise Already_fulfilled

let cancel t =
  let won = Atomic.compare_and_set (cell t) Pending (Terminated Cancelled) in
  if won then Obs.future_cancelled ~born:t.born;
  won

let poison t e =
  let won = Atomic.compare_and_set (cell t) Pending (Terminated (Broken e)) in
  if won then Obs.future_poisoned ~born:t.born;
  won

(* Admission control's terminal fate: the op was never accepted, so
   unlike [cancel] (owner withdrew) and [poison] (owner died) there is
   nothing to withdraw or recover — the caller may resubmit. *)
let reject t =
  let won = Atomic.compare_and_set (cell t) Pending (Terminated Rejected) in
  if won then Obs.future_rejected ~born:t.born;
  won

let rejected () =
  { state = Terminated Rejected; evaluator = no_eval; born = 0 }

let is_ready t =
  match Atomic.get (cell t) with
  | Ready _ -> true
  | Pending | Terminated _ -> false

let is_pending t =
  match Atomic.get (cell t) with
  | Pending -> true
  | Ready _ | Terminated _ -> false

let is_cancelled t =
  match Atomic.get (cell t) with
  | Terminated Cancelled -> true
  | Pending | Ready _ | Terminated _ -> false

let is_poisoned t =
  match Atomic.get (cell t) with
  | Terminated (Broken _) -> true
  | Pending | Ready _ | Terminated _ -> false

let is_rejected t =
  match Atomic.get (cell t) with
  | Terminated Rejected -> true
  | Pending | Ready _ | Terminated _ -> false

let peek t =
  match Atomic.get (cell t) with
  | Ready v -> Some v
  | Pending | Terminated _ -> None

(* How many backoff rounds [force] waits for an evaluator-less future
   before concluding nobody will ever fulfil it. [await] has no such bound:
   it is specified as "a producer will fulfil". *)
let stuck_rounds = 1000

let await t =
  Faults.point "future.await";
  let b = Sync.Backoff.create () in
  let rec loop () =
    match Atomic.get (cell t) with
    | Ready v -> v
    | Terminated e -> raise e
    | Pending ->
        Sync.Backoff.once b;
        loop ()
  in
  loop ()

let await_for t ~seconds =
  Faults.point "future.await";
  match Atomic.get (cell t) with
  | Ready v -> v
  | Terminated e -> raise e
  | Pending ->
      let deadline = Sync.Mono.now () +. seconds in
      let b = Sync.Backoff.create () in
      let rec loop () =
        match Atomic.get (cell t) with
        | Ready v -> v
        | Terminated e -> raise e
        | Pending ->
            if Sync.Mono.now () >= deadline then raise Timeout;
            Sync.Backoff.once b;
            loop ()
      in
      loop ()

let rec force t =
  Faults.point "future.force";
  (* Only a force that finds the future unresolved is timed: the force
     histogram then measures actual waiting/helping, and the common
     force-after-flush of an already-fulfilled future costs no clock
     reads. *)
  match Atomic.get (cell t) with
  | Ready v -> v
  | Terminated e -> raise e
  | Pending ->
      let t0 = Obs.force_begin () in
      let v = force_body t in
      Obs.future_forced ~t0;
      v

and force_body t =
  match Atomic.get (cell t) with
  | Ready v -> v
  | Terminated e -> raise e
  | Pending ->
      if t.evaluator != no_eval then begin
        t.evaluator t;
        match Atomic.get (cell t) with
        | Ready v -> v
        | Terminated e -> raise e
        | Pending -> raise Stuck
      end
      else
        (* No evaluator: give concurrent fulfillers a bounded chance. *)
        let b = Sync.Backoff.create () in
        let rec wait rounds =
          match Atomic.get (cell t) with
          | Ready v -> v
          | Terminated e -> raise e
          | Pending ->
              if rounds = 0 then raise Stuck;
              Sync.Backoff.once b;
              wait (rounds - 1)
        in
        wait stuck_rounds

let rec force_until t ~deadline =
  Faults.point "future.force";
  match Atomic.get (cell t) with
  | Ready v -> v
  | Terminated e -> raise e
  | Pending ->
      let t0 = Obs.force_begin () in
      let v = force_until_body t ~deadline in
      Obs.future_forced ~t0;
      v

and force_until_body t ~deadline =
  match Atomic.get (cell t) with
  | Ready v -> v
  | Terminated e -> raise e
  | Pending ->
      if t.evaluator != no_eval then begin
        (* The evaluator is the owner's own code: run it to completion
           (aborting it midway could leave the structure's pending lists
           half-applied); the deadline bounds only the wait on other
           threads. *)
        t.evaluator t;
        match Atomic.get (cell t) with
        | Ready v -> v
        | Terminated e -> raise e
        | Pending -> raise Stuck
      end
      else
        let b = Sync.Backoff.create () in
        let rec wait () =
          match Atomic.get (cell t) with
          | Ready v -> v
          | Terminated e -> raise e
          | Pending ->
              if Sync.Mono.now () >= deadline then raise Timeout;
              Sync.Backoff.once b;
              wait ()
        in
        wait ()

(* A derived future inherits its parent's terminal state: forcing it
   raises the parent's [Cancelled]/[Broken] rather than [Stuck], and the
   derived future itself terminates so later forces short-circuit. *)
let terminate t e =
  if Atomic.compare_and_set (cell t) Pending (Terminated e) then
    match e with
    | Broken _ -> Obs.future_poisoned ~born:t.born
    | Rejected -> Obs.future_rejected ~born:t.born
    | _ -> Obs.future_cancelled ~born:t.born

let map f fut =
  create_with ~evaluator:(fun t ->
      match force fut with
      | v -> fulfil t (f v)
      | exception ((Cancelled | Broken _ | Rejected) as e) ->
          terminate t e;
          raise e)

let both a b =
  create_with ~evaluator:(fun t ->
      match
        let va = force a in
        let vb = force b in
        (va, vb)
      with
      | pair -> fulfil t pair
      | exception ((Cancelled | Broken _ | Rejected) as e) ->
          terminate t e;
          raise e)

let all fs =
  create_with ~evaluator:(fun t ->
      match List.map force fs with
      | vs -> fulfil t vs
      | exception ((Cancelled | Broken _ | Rejected) as e) ->
          terminate t e;
          raise e)

(* ------------------------ bounded resubmission ----------------------- *)

(* The retry path for [Rejected] — and only [Rejected]: a cancelled or
   poisoned future names an op that was accepted and then withdrawn or
   lost, where blind resubmission could double-apply it; a rejected one
   was never accepted, so resubmitting is always safe. Each attempt that
   comes back already-rejected backs off (with the yielding Backoff, so
   a shedding service is not hammered by its own clients) and tries
   again; the last attempt's future is returned as-is, rejected or not. *)
let retry ?(attempts = 3) f =
  if attempts < 1 then invalid_arg "Future.retry: attempts must be >= 1";
  let b = Sync.Backoff.create () in
  let rec go n =
    let t = f () in
    if n > 1 && is_rejected t then begin
      Sync.Backoff.once b;
      go (n - 1)
    end
    else t
  in
  go attempts
