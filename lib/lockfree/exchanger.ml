(* An offer parked in a slot. Offers are fresh heap values, never
   reused, so physical-equality CAS on slots is ABA-free.

   Each offer carries a three-state cell deciding its fate exactly once:
   waiting -> taken/fed (a partner claimed it) or waiting -> cancelled
   (its owner withdrew — timeout, or an exception such as an injected
   kill unwinding through the park loop). A claimant first removes the
   offer from its slot, then CASes the state cell; the owner's cancel
   CASes the same cell, so the claim/cancel race has exactly one winner
   and a dead partner can never capture a live one's value. *)
type give_state = Gwaiting | Gtaken | Gcancelled
type 'a take_state = Tempty | Tfed of 'a | Tcancelled

type 'a offer =
  | Give of { value : 'a; state : give_state Atomic.t }
  | Take of { state : 'a take_state Atomic.t }

type 'a t = {
  slots : 'a offer option Atomic.t array; (* each on its own cache line *)
  width : int Atomic.t; (* active prefix of [slots], in [1..capacity] *)
  exchanged : int Atomic.t;
  cancels : int Atomic.t; (* offers withdrawn by their owner *)
  reclaimed : int Atomic.t; (* cancelled offers removed from slots *)
  seeds : Sync.Padded.Int_array.t; (* per-domain-stripe PRNG states *)
}

let seed_stripes = 16

let create ?(capacity = 8) () =
  if capacity <= 0 then invalid_arg "Exchanger.create: capacity <= 0";
  {
    slots = Sync.Padded.atomic_array capacity None;
    width = Sync.Padded.atomic (min 2 capacity);
    exchanged = Sync.Padded.atomic 0;
    cancels = Sync.Padded.atomic 0;
    reclaimed = Sync.Padded.atomic 0;
    seeds = Sync.Padded.Int_array.make seed_stripes;
  }

let capacity t = Array.length t.slots
let width t = Atomic.get t.width
let exchanged t = Atomic.get t.exchanged
let cancelled t = Atomic.get t.cancels
let reclaimed t = Atomic.get t.reclaimed

(* Cheap per-domain randomness: a striped splitmix-style counter, one
   padded cell per domain stripe so slot choice never bounces a line
   between domains (a lost race on a PRNG state is harmless). *)
let random_index t =
  let stripe = (Domain.self () :> int) land (seed_stripes - 1) in
  let s = Sync.Padded.Int_array.get t.seeds stripe + 0x9E3779B9 in
  Sync.Padded.Int_array.set t.seeds stripe s;
  let s = s lxor (s lsr 16) in
  let s = s * 0x45d9f3b in
  let s = s lxor (s lsr 16) in
  (s land max_int) mod Atomic.get t.width

(* Width policy: a collision (two offers racing for one slot) means the
   active shard set is too narrow for the traffic — double it; a parked
   offer that times out unmatched means it is too wide for partners to
   find each other — step it back down. Plain CAS, losers just retry on
   their next probe. *)
let widen t =
  let cap = Array.length t.slots in
  let w = Atomic.get t.width in
  if w < cap then ignore (Atomic.compare_and_set t.width w (min cap (2 * w)))

let narrow t =
  let w = Atomic.get t.width in
  if w > 1 then ignore (Atomic.compare_and_set t.width w (w - 1))

let default_patience = 64

(* CAS on slots compares the option box physically, so every
   compare_and_set must use the exact value read (or installed) —
   rebuilding [Some _] would never match. *)

(* Claim a parked take offer for value [v]: remove it from its slot,
   then win its state cell. [false] means the value is still ours —
   either somebody else got the slot first, or the taker cancelled. *)
let claim_take t ~shard slot stored state v =
  Faults.point "elim.exchange";
  match Atomic.get state with
  | Tcancelled ->
      (* Dead partner still parked: reclaim the slot so it cannot sit in
         the way (or capture anyone) forever. *)
      if Atomic.compare_and_set slot stored None then Atomic.incr t.reclaimed;
      Obs.elim_miss ~shard;
      false
  | Tfed _ | Tempty ->
      if Atomic.compare_and_set slot stored None then
        if Atomic.compare_and_set state Tempty (Tfed v) then begin
          Atomic.incr t.exchanged;
          (* Hits are counted once per pair, on the claimant side. *)
          Obs.elim_hit ~shard;
          true
        end
        else begin
          (* Cancelled as we claimed: we removed the corpse, keep [v]. *)
          Atomic.incr t.reclaimed;
          Obs.elim_miss ~shard;
          false
        end
      else begin
        widen t;
        Obs.elim_miss ~shard;
        false
      end

(* Claim a parked give offer: symmetric to [claim_take]. *)
let claim_give t ~shard slot stored (value : 'a) state =
  Faults.point "elim.exchange";
  match Atomic.get state with
  | Gcancelled ->
      if Atomic.compare_and_set slot stored None then Atomic.incr t.reclaimed;
      Obs.elim_miss ~shard;
      None
  | Gtaken | Gwaiting ->
      if Atomic.compare_and_set slot stored None then
        if Atomic.compare_and_set state Gwaiting Gtaken then begin
          Atomic.incr t.exchanged;
          Obs.elim_hit ~shard;
          Some value
        end
        else begin
          Atomic.incr t.reclaimed;
          Obs.elim_miss ~shard;
          None
        end
      else begin
        widen t;
        Obs.elim_miss ~shard;
        None
      end

let give ?(patience = default_patience) t v =
  let shard = random_index t in
  let slot = t.slots.(shard) in
  match Atomic.get slot with
  | Some (Take p) as stored -> claim_take t ~shard slot stored p.state v
  | Some (Give _) ->
      widen t;
      Obs.elim_miss ~shard;
      false
  | None ->
      let state = Atomic.make Gwaiting in
      let boxed = Some (Give { value = v; state }) in
      Faults.point "elim.offer";
      if Atomic.compare_and_set slot None boxed then begin
        let t0 = Obs.elim_wait_begin () in
        (* Park and wait for a taker. [cancel] decides the race against a
           claimant on the state cell: if it wins, the value was never
           handed over (and the slot is cleared best-effort — a failed
           slot CAS means a claimant already removed us and its state CAS
           will now fail); if it loses, the exchange completed. *)
        let cancel () =
          if Atomic.compare_and_set state Gwaiting Gcancelled then begin
            Atomic.incr t.cancels;
            ignore (Atomic.compare_and_set slot boxed None);
            narrow t;
            (* A parked offer nobody matched is the miss; a matched one is
               the hit already counted on the claimant's side. *)
            Obs.elim_miss ~shard;
            false
          end
          else true
        in
        let rec wait n =
          Faults.point "elim.park";
          match Atomic.get state with
          | Gtaken -> true
          | Gcancelled -> false
          | Gwaiting ->
              if n = 0 then cancel ()
              else begin
                Domain.cpu_relax ();
                wait (n - 1)
              end
        in
        (* A kill injected while parked must not leave a live offer for a
           partner to capture: withdraw it, then let the exception go. *)
        match wait patience with
        | matched ->
            Obs.elim_wait_end ~t0;
            matched
        | exception e ->
            ignore (cancel () : bool);
            Obs.elim_wait_end ~t0;
            raise e
      end
      else begin
        widen t;
        Obs.elim_miss ~shard;
        false
      end

let take ?(patience = default_patience) t =
  let shard = random_index t in
  let slot = t.slots.(shard) in
  match Atomic.get slot with
  | Some (Give p) as stored -> claim_give t ~shard slot stored p.value p.state
  | Some (Take _) ->
      widen t;
      Obs.elim_miss ~shard;
      None
  | None ->
      let state = Atomic.make Tempty in
      let boxed = Some (Take { state }) in
      Faults.point "elim.offer";
      if Atomic.compare_and_set slot None boxed then begin
        let t0 = Obs.elim_wait_begin () in
        let cancel () =
          if Atomic.compare_and_set state Tempty Tcancelled then begin
            Atomic.incr t.cancels;
            ignore (Atomic.compare_and_set slot boxed None);
            narrow t;
            Obs.elim_miss ~shard;
            None
          end
          else
            (* Fed just as we gave up: the claim's state CAS already
               published the value. *)
            match Atomic.get state with Tfed v -> Some v | _ -> None
        in
        let rec wait n =
          Faults.point "elim.park";
          match Atomic.get state with
          | Tfed v -> Some v
          | Tcancelled -> None
          | Tempty ->
              if n = 0 then cancel ()
              else begin
                Domain.cpu_relax ();
                wait (n - 1)
              end
        in
        match wait patience with
        | outcome ->
            Obs.elim_wait_end ~t0;
            outcome
        | exception e ->
            ignore (cancel () : 'a option);
            Obs.elim_wait_end ~t0;
            raise e
      end
      else begin
        widen t;
        Obs.elim_miss ~shard;
        None
      end
