module Future = Futures.Future

module type KEY = sig
  type t

  val compare : t -> t -> int
  val hash : t -> int
end

module Make (K : KEY) = struct
  module M = Lockfree.Harris_kv.Make (K)
  module S = Sorted.Map (K)

  type 'v op = 'v S.op

  (* A sealed pending window in flight between owners. Once shipped, the
     buffer belongs to whoever wins the ack/recover CAS — exactly one
     handle ever touches it again. *)
  type 'v pkg = 'v op Opbuf.t

  type 'v shard = { b : 'v pkg Bucket.t; kv : 'v M.t }

  type 'v t = {
    shards : 'v shard array;
    lease : float;
    grant_timeout : float;
    next_id : int Atomic.t;
    (* Low-rate protocol statistics; padded so a transfer storm on one
       counter never bounces the others' cache lines. *)
    c_requests : int Atomic.t;
    c_grants : int Atomic.t;
    c_ships : int Atomic.t;
    c_acks : int Atomic.t;
    c_recovers : int Atomic.t;
    c_retries : int Atomic.t;
    c_degraded : int Atomic.t;
    c_poisoned : int Atomic.t;
  }

  type 'v handle = {
    t : 'v t;
    me : int;  (* unique lease-owner identity, never reused *)
    wins : 'v op Opbuf.t array;  (* one pending window per bucket *)
    (* Evaluators per bucket, built once with the handle and shared by
       every op's future: [settle] needs the op's bucket, and the
       future alone does not name it. *)
    eval_insert : (bool Future.t -> unit) array;
    eval_lookup : ('v option Future.t -> unit) array;
  }

  type stats = {
    requests : int;
    grants : int;
    ships : int;
    acks : int;
    recovers : int;
    retries : int;
    degraded_finds : int;
    poisoned : int;
  }

  let create ?(buckets = 8) ?(lease = 0.05) ?(grant_timeout = 0.002) () =
    if buckets < 1 then invalid_arg "Shard_map.create: buckets < 1";
    if lease <= 0.0 then invalid_arg "Shard_map.create: lease <= 0";
    if grant_timeout <= 0.0 then invalid_arg "Shard_map.create: grant_timeout <= 0";
    {
      shards =
        Array.init buckets (fun id -> { b = Bucket.create ~id; kv = M.create () });
      lease;
      grant_timeout;
      next_id = Atomic.make 0;
      c_requests = Sync.Padded.atomic 0;
      c_grants = Sync.Padded.atomic 0;
      c_ships = Sync.Padded.atomic 0;
      c_acks = Sync.Padded.atomic 0;
      c_recovers = Sync.Padded.atomic 0;
      c_retries = Sync.Padded.atomic 0;
      c_degraded = Sync.Padded.atomic 0;
      c_poisoned = Sync.Padded.atomic 0;
    }

  let buckets t = Array.length t.shards

  let bucket_of_key t k = (K.hash k land max_int) mod Array.length t.shards

  let stats t =
    {
      requests = Atomic.get t.c_requests;
      grants = Atomic.get t.c_grants;
      ships = Atomic.get t.c_ships;
      acks = Atomic.get t.c_acks;
      recovers = Atomic.get t.c_recovers;
      retries = Atomic.get t.c_retries;
      degraded_finds = Atomic.get t.c_degraded;
      poisoned = Atomic.get t.c_poisoned;
    }

  let in_flight t =
    Array.fold_left
      (fun n sh -> if Bucket.in_flight (Bucket.state sh.b) then n + 1 else n)
      0 t.shards

  let get t k = M.find (t.shards.(bucket_of_key t k)).kv k

  let size t = Array.fold_left (fun n sh -> n + M.size sh.kv) 0 t.shards

  let bindings t =
    Array.fold_left (fun acc sh -> acc @ M.bindings sh.kv) [] t.shards
    |> List.sort (fun (a, _) (b, _) -> K.compare a b)

  (* ------------------------- op plumbing --------------------------- *)

  let withdraw w = Window.withdraw_ring ~pending:S.pending w
  let poison_buf w = Window.poison_ring ~poison:S.poison w

  (* A shipped package is owned by nobody's handle, so if its application
     dies mid-way (a kill at a fulfil point under whole-process chaos)
     the survivors must not hang: poison the un-applied remainder before
     re-raising. *)
  let apply_pkg t kv pkg =
    match S.apply kv pkg with
    | n ->
        Opbuf.clear pkg;
        Obs.splice ~kind:Obs.Event.k_shard ~n;
        n
    | exception e ->
        let k = poison_buf pkg in
        if k > 0 then ignore (Atomic.fetch_and_add t.c_poisoned k);
        raise e

  (* --------------------- degraded read-only mode -------------------- *)

  (* While a bucket is owned elsewhere or in flight, pending finds whose
     key has no earlier pending mutation in this window may be answered
     directly against the segment — a legal weak-FL linearization point
     inside their pending window — leaving only mutations to wait for
     the transfer. *)
  let degraded_serve h i =
    let t = h.t in
    let sh = t.shards.(i) in
    let w = h.wins.(i) in
    let mutation_on k =
      let found = ref false in
      Opbuf.iter
        (fun op ->
          match op with
          | S.Insert (k', _, f) when Future.is_pending f && K.compare k k' = 0
            ->
              found := true
          | S.Remove (k', f) when Future.is_pending f && K.compare k k' = 0 ->
              found := true
          | _ -> ())
        w;
      !found
    in
    (* A served find is no longer pending: the next withdraw drops it. *)
    for idx = 0 to Opbuf.length w - 1 do
      match Opbuf.get w idx with
      | S.Find (k, f) when Future.is_pending f && not (mutation_on k) ->
          if Future.try_fulfil f (M.find sh.kv k) then begin
            Atomic.incr t.c_degraded;
            Obs.shard_degraded ~bucket:i
          end
      | _ -> ()
    done

  (* ---------------------- grant, ship, release ---------------------- *)

  (* Grant bucket [i] to its requester and seal-and-ship our window for
     it. The [shard.ship] fault point fires *before* the window is
     detached, so a kill there leaves the window in this handle where
     [abandon] can poison it; after a successful grant the window rides
     in the Shipped state and exactly one taker (acker or recoverer)
     settles it. *)
  let grant_and_ship h i sh =
    let t = h.t in
    Faults.point "shard.grant";
    if Bucket.try_grant sh.b ~me:h.me ~timeout:t.lease then begin
      Atomic.incr t.c_grants;
      Obs.shard_grant ~bucket:i;
      Faults.point "shard.ship";
      let pkg = Opbuf.create () in
      Opbuf.swap pkg h.wins.(i);
      let n = withdraw pkg in
      (* Stamp before the publishing CAS: the requester acks as soon as
         Shipped is visible, and its ack must not sort before this ship
         in the exported trace. *)
      let ship_ts = Obs.now_ns () in
      if Bucket.try_ship sh.b ~me:h.me ~pkg then begin
        Atomic.incr t.c_ships;
        Obs.shard_ship ~ts:ship_ts ~bucket:i ~n
      end
      else
        (* The transfer expired under us and a recoverer owns the
           bucket: keep our window and re-route it normally. *)
        Opbuf.swap pkg h.wins.(i)
    end

  (* Hand a held lease back. A request that arrived meanwhile is granted
     instead, shipping whatever is left of our window (normally nothing). *)
  let release h i sh =
    if not (Bucket.try_release sh.b ~me:h.me) then
      match Bucket.state sh.b with
      | Bucket.Requested { owner; _ } when owner = h.me -> grant_and_ship h i sh
      | _ -> ()

  (* Usurp the bucket if its deadline passed, apply a window caught in
     flight under the lease just taken, and give the lease straight back;
     returns the ops applied (0 if the state was live). A late receiver
     is not dead: the recover/ack CAS gives the package to exactly one
     of them, so applying it here takes it once, like an ack would. *)
  let recover h i sh =
    let t = h.t in
    match Bucket.try_recover sh.b ~me:h.me ~lease:t.lease with
    | None -> 0
    | Some r ->
        Atomic.incr t.c_recovers;
        let n =
          match r.Bucket.lost with
          | None -> 0
          | Some pkg -> apply_pkg t sh.kv pkg
        in
        Obs.shard_recover ~bucket:i ~applied:n;
        release h i sh;
        n

  (* ------------------------- the flush loop ------------------------- *)

  (* Apply bucket [i]'s window under a lease taken for this apply alone
     (acquire, ack or recover) and released right after, so no handle
     waits while holding a lease and the waits need not grant. Terminates:
     every wait is bounded by a lease or transfer deadline, after which
     try_recover succeeds (or another handle's did, changing the state we
     re-read). *)
  let flush_bucket h i =
    let t = h.t in
    let sh = t.shards.(i) in
    let w = h.wins.(i) in
    if Opbuf.length w > 0 then begin
      let bo = Sync.Backoff.create () in
      let attempt = ref 0 in
      let req_deadline = ref infinity in
      let t0 = ref 0 in
      let rec loop () =
        let now = Sync.Mono.now () in
        match Bucket.state sh.b with
        | Bucket.Owned { owner; _ } | Bucket.Requested { owner; _ }
          when owner = h.me ->
            held ()
        | _ when withdraw w = 0 -> ()
        | Bucket.Free _ ->
            if Bucket.try_acquire sh.b ~me:h.me ~lease:t.lease then held ()
            else wait ()
        | st when Bucket.expired ~now st ->
            ignore (recover h i sh : int);
            loop ()
        | Bucket.Owned _ ->
            (* live foreign lease: read-only service, then request *)
            degraded_serve h i;
            if withdraw w > 0 then begin
              if Bucket.try_request sh.b ~me:h.me then begin
                Atomic.incr t.c_requests;
                let s = Obs.shard_request ~bucket:i in
                if !t0 = 0 then t0 := s;
                req_deadline :=
                  Sync.Mono.now ()
                  +. (t.grant_timeout *. float_of_int (1 lsl min !attempt 8))
              end;
              wait ()
            end
        | Bucket.Requested { to_; _ } when to_ = h.me ->
            if now > !req_deadline then begin
              (* the grant did not come in time: back off exponentially
                 (the lease deadline still bounds the total wait) *)
              Atomic.incr t.c_retries;
              incr attempt;
              req_deadline :=
                now +. (t.grant_timeout *. float_of_int (1 lsl min !attempt 8))
            end;
            wait ()
        | Bucket.Shipped { to_; _ } when to_ = h.me -> (
            Faults.point "shard.ack";
            match Bucket.try_ack sh.b ~me:h.me ~lease:t.lease with
            | Some pkg ->
                Atomic.incr t.c_acks;
                Obs.shard_ack ~bucket:i ~t0:!t0;
                ignore (apply_pkg t sh.kv pkg : int);
                loop ()
            | None -> wait ())
        | Bucket.Granted { to_; _ } when to_ = h.me -> wait ()
        | Bucket.Requested _ | Bucket.Granted _ | Bucket.Shipped _ ->
            (* a transfer between other handles: degraded reads only *)
            degraded_serve h i;
            if withdraw w > 0 then wait ()
      and held () =
        (* We hold the lease. A request that came in while we took it is
           answered by shipping the window instead of applying it. *)
        Faults.point "shard.apply";
        match Bucket.state sh.b with
        | Bucket.Requested { owner; _ } when owner = h.me ->
            grant_and_ship h i sh;
            loop ()
        | Bucket.Owned { owner; until; _ } when owner = h.me ->
            if withdraw w = 0 then release h i sh
            else if
              until -. Sync.Mono.now () < t.lease /. 2.0
              && not (Bucket.try_renew sh.b ~me:h.me ~lease:t.lease)
            then loop ()
            else begin
              (* Applied in place: if this domain dies mid-apply, the
                 window is still attached and [abandon] poisons the
                 remainder. *)
              let n = S.apply sh.kv w in
              Opbuf.clear w;
              Obs.splice ~kind:Obs.Event.k_shard ~n;
              release h i sh
            end
        | _ -> loop ()
      and wait () =
        Sync.Backoff.once bo;
        loop ()
      in
      loop ()
    end

  let flush h =
    for i = 0 to Array.length h.wins - 1 do
      flush_bucket h i
    done

  (* After a flush, a future of ours can still be pending only because
     its window was sealed-and-shipped to another handle. Wait for the
     receiver to apply it, pumping deadline recovery so that a dead
     receiver's package is applied here rather than hanging us. *)
  let settle h i f =
    if Future.is_pending f then begin
      let sh = h.t.shards.(i) in
      let bo = Sync.Backoff.create () in
      while Future.is_pending f do
        ignore (recover h i sh : int);
        Sync.Backoff.once bo
      done
    end

  (* Bucket [i]'s evaluator. *)
  let evaluate h i f =
    flush h;
    settle h i f

  let handle t =
    let n = Array.length t.shards in
    let h =
      {
        t;
        me = Atomic.fetch_and_add t.next_id 1;
        wins = Array.init n (fun _ -> Opbuf.create ());
        eval_insert = Array.make n ignore;
        eval_lookup = Array.make n ignore;
      }
    in
    for i = 0 to n - 1 do
      h.eval_insert.(i) <- evaluate h i;
      h.eval_lookup.(i) <- evaluate h i
    done;
    h

  let insert h k v =
    let i = bucket_of_key h.t k in
    let f = Window.future h.eval_insert.(i) in
    Opbuf.push h.wins.(i) (S.Insert (k, v, f));
    f

  let find h k =
    let i = bucket_of_key h.t k in
    let f = Window.future h.eval_lookup.(i) in
    Opbuf.push h.wins.(i) (S.Find (k, f));
    f

  let remove h k =
    let i = bucket_of_key h.t k in
    let f = Window.future h.eval_lookup.(i) in
    Opbuf.push h.wins.(i) (S.Remove (k, f));
    f

  let pending_count h =
    Array.fold_left
      (fun n w ->
        let k = ref 0 in
        Opbuf.iter (fun op -> if S.pending op then incr k) w;
        n + !k)
      0 h.wins

  let abandon h =
    let t = h.t in
    let n = ref 0 in
    Array.iter (fun w -> n := !n + poison_buf w) h.wins;
    if !n > 0 then ignore (Atomic.fetch_and_add t.c_poisoned !n);
    !n

  let recover_all h =
    let n = ref 0 in
    Array.iteri (fun i sh -> n := !n + recover h i sh) h.t.shards;
    !n
end
