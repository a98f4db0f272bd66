(* A publication record. [request] is written by the owner and consumed
   (reset to None) by the combiner; [response] is written by the combiner
   and consumed by the owner. The owner publishes a new request only
   after consuming the previous response, so a record holds at most one
   in-flight operation. Responses carry [('res, exn) result] so that an
   [apply_op] that raises still answers its record — the exception
   travels back to the owner and is re-raised there, and every other
   record in the pass is answered normally. *)
type ('op, 'res) record = {
  request : 'op option Atomic.t;
  response : ('res, exn) result option Atomic.t;
  mutable next : ('op, 'res) record option; (* immutable once published *)
}

(* Combining is guarded by a lease, not a plain lock: [term] is even when
   no combiner is active and odd while one holds the role, and it only
   ever grows. Becoming the combiner is CAS [even -> even+1] (acquire) or
   CAS [odd -> odd+2] (takeover of a stalled combiner's lease); release
   is CAS [odd -> odd+1]. A combiner re-reads [term] at every record
   boundary and abandons the scan the moment its term is stale, so a
   deposed (stalled, now awake) combiner stops touching the sequential
   structure; its release CAS then fails harmlessly. [progress] ticks at
   every record boundary, giving waiters a liveness signal that is fine
   grained even during one long pass. *)
type ('op, 'res) t = {
  apply_op : 'op -> 'res;
  term : int Atomic.t;
  publication : ('op, 'res) record option Atomic.t;
  passes : int Atomic.t;
  progress : int Atomic.t;
  takeovers : int Atomic.t;
  retired : int Atomic.t;
  takeover_budget : int;
}

type ('op, 'res) handle = { owner : ('op, 'res) t; record : ('op, 'res) record }

let default_takeover_budget = 64

let create ?(takeover_budget = default_takeover_budget) ~apply () =
  if takeover_budget <= 0 then
    invalid_arg "Flat_combining.create: takeover_budget must be positive";
  (* [term] and [progress] are polled by every waiter on every spin while
     the combiner stores to them at every record boundary; [publication]
     is CASed by every joining thread. Each gets its own cache line so
     the pollers' read traffic and the combiner's writes don't collide. *)
  {
    apply_op = apply;
    term = Sync.Padded.atomic 0;
    publication = Sync.Padded.atomic None;
    passes = Sync.Padded.atomic 0;
    progress = Sync.Padded.atomic 0;
    takeovers = Sync.Padded.atomic 0;
    retired = Sync.Padded.atomic 0;
    takeover_budget;
  }

let handle owner =
  (* A record's [request] is written by its owner and consumed by the
     combiner while [response] flows the other way; padding both keeps
     the two parties' cache lines disjoint (and keeps one thread's
     publication record from false-sharing with its neighbour's in the
     list). *)
  let record =
    {
      request = Sync.Padded.atomic None;
      response = Sync.Padded.atomic None;
      next = None;
    }
  in
  let rec link () =
    let head = Atomic.get owner.publication in
    record.next <- head;
    if not (Atomic.compare_and_set owner.publication head (Some record)) then
      link ()
  in
  link ();
  { owner; record }

(* Answer every pending request from [node] to the tail as the holder of
   lease [my_term], stopping (without error) as soon as the lease is
   observed stale; returns [answered] plus the requests answered. *)
let rec walk t my_term answered = function
  | None -> answered
  | Some r ->
      Faults.point "fc.record";
      if Atomic.get t.term <> my_term then answered
      else begin
        let answered =
          match Atomic.get r.request with
          | Some op as stored ->
              (* Claim before applying: [retire] (the owner withdrawing a
                 request it failed mid-publish) CASes the same cell, so
                 exactly one side wins — a withdrawn op is never applied
                 and an applied op is never withdrawn. *)
              if Atomic.compare_and_set r.request stored None then begin
                let result =
                  match t.apply_op op with v -> Ok v | exception e -> Error e
                in
                Atomic.set r.response (Some result);
                Atomic.incr t.progress;
                answered + 1
              end
              else answered
          | None -> answered
        in
        walk t my_term answered r.next
      end

(* One combining pass over the whole publication list from the head. *)
let combine t my_term =
  Atomic.incr t.passes;
  Faults.point "fc.pass";
  let answered = walk t my_term 0 (Atomic.get t.publication) in
  (* One lease-guarded pass amortized [answered] ops — the combining
     analogue of a window splice. *)
  Obs.splice ~kind:Obs.Event.k_fc_pass ~n:answered

let try_release t my_term =
  ignore (Atomic.compare_and_set t.term my_term (my_term + 1))

(* Run one pass as the holder of [my_term], then release. A simulated
   thread death ([Faults.Killed]) deliberately leaves the lease held — a
   dead combiner releases nothing — so recovery must come from a
   waiter's takeover; any other exception releases normally. *)
let run_as_combiner t my_term =
  match combine t my_term with
  | () -> try_release t my_term
  | exception e ->
      (match e with Faults.Killed _ -> () | _ -> try_release t my_term);
      raise e

(* Withdraw a record's in-flight request after its owner failed (e.g.
   raised [Faults.Killed]) between publishing and consuming the
   response. Either the request is still unclaimed — un-publish it, so
   no combiner ever applies the dead owner's half-initialized op — or a
   combiner claimed it first, in which case the response it is writing
   is drained (bounded) so the record is clean for reuse instead of
   answering some later op with a stale result. *)
let retire h =
  let t = h.owner in
  let r = h.record in
  let drain_stale_response () =
    let b = Sync.Backoff.create () in
    let rec loop rounds =
      match Atomic.get r.response with
      | Some _ -> Atomic.set r.response None
      | None ->
          (* If the claiming combiner itself died before answering, give
             up: the record stays claimed-and-unanswered, which every
             later pass skips. *)
          if rounds > 0 then begin
            Sync.Backoff.once b;
            loop (rounds - 1)
          end
    in
    loop 128
  in
  match Atomic.get r.request with
  | Some _ as stored ->
      if Atomic.compare_and_set r.request stored None then begin
        Atomic.incr t.retired;
        Obs.combiner_retire ()
      end
      else drain_stale_response ()
  | None -> drain_stale_response ()

let apply h op =
  let t = h.owner in
  Faults.point "fc.apply";
  Atomic.set h.record.request (Some op);
  let b = Sync.Backoff.create ~budget:t.takeover_budget () in
  let rec wait last_term last_progress =
    match Atomic.get h.record.response with
    | Some result ->
        Atomic.set h.record.response None;
        result
    | None ->
        let term = Atomic.get t.term in
        if term land 1 = 0 then
          if Atomic.compare_and_set t.term term (term + 1) then begin
            (* We are the combiner: everybody's requests, including our
               own (published above, before the lease attempt), are
               answered in this pass. *)
            Obs.combiner_acquire ();
            run_as_combiner t (term + 1);
            Sync.Backoff.reset b;
            wait (Atomic.get t.term) (Atomic.get t.progress)
          end
          else wait last_term last_progress
        else begin
          let progress = Atomic.get t.progress in
          if term <> last_term || progress <> last_progress then begin
            (* The combiner moved between records (or changed identity)
               since we last looked: it is alive, keep waiting. *)
            Sync.Backoff.reset b;
            Sync.Backoff.once b;
            wait term progress
          end
          else if Sync.Backoff.give_up b then begin
            (* No record boundary crossed for a whole spin budget: the
               lease holder is stalled or dead. Usurp its term and
               combine ourselves rather than spinning forever.
               ([Backoff] lives below [Obs] in the dependency order, so
               exhaustion is reported here, at the consumption site.) *)
            Obs.backoff_exhausted ();
            if Atomic.compare_and_set t.term term (term + 2) then begin
              Atomic.incr t.takeovers;
              Obs.combiner_takeover ();
              run_as_combiner t (term + 2);
              Sync.Backoff.reset b;
              wait (Atomic.get t.term) (Atomic.get t.progress)
            end
            else begin
              Sync.Backoff.reset b;
              wait (Atomic.get t.term) (Atomic.get t.progress)
            end
          end
          else begin
            Sync.Backoff.once b;
            wait term progress
          end
        end
  in
  (* [wait] only raises on protocol failure (an injected kill while we
     held the combiner lease, never an [apply_op] exception — those
     travel through the response). Retire our published request on the
     way out so no later combiner applies an op whose owner is gone. *)
  let result =
    try wait (Atomic.get t.term) (Atomic.get t.progress)
    with e ->
      retire h;
      raise e
  in
  match result with Ok v -> v | Error e -> raise e

let combiner_passes t = Atomic.get t.passes
let combiner_takeovers t = Atomic.get t.takeovers
let retired_records t = Atomic.get t.retired
