(* The bucket ownership word. Every transition is a single CAS on one
   padded atomic; records are freshly allocated per transition, so CAS on
   physical equality can never confuse two logically distinct states
   (no ABA). Deadlines are monotonic seconds (Sync.Mono). *)

type 'pkg state =
  | Free of int
  | Owned of { owner : int; epoch : int; until : float }
  | Requested of { owner : int; epoch : int; until : float; to_ : int }
  | Granted of { from_ : int; to_ : int; epoch : int; until : float }
  | Shipped of { from_ : int; to_ : int; epoch : int; until : float; pkg : 'pkg }

type 'pkg t = { id : int; word : 'pkg state Atomic.t }

let create ~id = { id; word = Sync.Padded.atomic (Free 0) }
let id t = t.id
let state t = Atomic.get t.word

let epoch = function
  | Free e -> e
  | Owned { epoch; _ }
  | Requested { epoch; _ }
  | Granted { epoch; _ }
  | Shipped { epoch; _ } ->
      epoch

let expired ~now = function
  | Free _ -> false
  | Owned { until; _ }
  | Requested { until; _ }
  | Granted { until; _ }
  | Shipped { until; _ } ->
      now >= until

let in_flight = function
  | Requested _ | Granted _ | Shipped _ -> true
  | Free _ | Owned _ -> false

let cas t old next = Atomic.compare_and_set t.word old next

let try_acquire t ~me ~lease =
  match Atomic.get t.word with
  | Free e as old ->
      cas t old (Owned { owner = me; epoch = e; until = Sync.Mono.now () +. lease })
  | _ -> false

let try_renew t ~me ~lease =
  match Atomic.get t.word with
  | Owned { owner; epoch; _ } as old when owner = me ->
      cas t old (Owned { owner; epoch; until = Sync.Mono.now () +. lease })
  | _ -> false

let try_release t ~me =
  match Atomic.get t.word with
  | Owned { owner; epoch; _ } as old when owner = me -> cas t old (Free (epoch + 1))
  | _ -> false

let try_request t ~me =
  match Atomic.get t.word with
  | Owned { owner; epoch; until } as old when owner <> me ->
      cas t old (Requested { owner; epoch; until; to_ = me })
  | _ -> false

let try_grant t ~me ~timeout =
  match Atomic.get t.word with
  | Requested { owner; epoch; to_; _ } as old when owner = me ->
      cas t old
        (Granted { from_ = owner; to_; epoch; until = Sync.Mono.now () +. timeout })
  | _ -> false

let try_ship t ~me ~pkg =
  match Atomic.get t.word with
  | Granted { from_; to_; epoch; until } as old when from_ = me ->
      cas t old (Shipped { from_; to_; epoch; until; pkg })
  | _ -> false

let try_ack t ~me ~lease =
  match Atomic.get t.word with
  | Shipped { to_; epoch; pkg; _ } as old when to_ = me ->
      if
        cas t old
          (Owned { owner = me; epoch = epoch + 1; until = Sync.Mono.now () +. lease })
      then Some pkg
      else None
  | _ -> None

type 'pkg recovery = { lost : 'pkg option }

let try_recover t ~me ~lease =
  let now = Sync.Mono.now () in
  match Atomic.get t.word with
  | (Owned { epoch; _ } | Requested { epoch; _ } | Granted { epoch; _ }) as old
    when expired ~now old ->
      if cas t old (Owned { owner = me; epoch = epoch + 1; until = now +. lease })
      then Some { lost = None }
      else None
  | Shipped { epoch; pkg; _ } as old when expired ~now old ->
      if cas t old (Owned { owner = me; epoch = epoch + 1; until = now +. lease })
      then Some { lost = Some pkg }
      else None
  | _ -> None
