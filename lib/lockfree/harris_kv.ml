module type KEY = sig
  type t

  val compare : t -> t -> int
end

module Make (K : KEY) = struct
  (* A live link is the successor node itself ([Nil] past the last one);
     a deleted node's link is [Dead succ], frozen for good. [next] is
     field 0 of the [Node] block (tag 0, scannable) and is only ever read
     or CASed through [cell], which views the block as the one-field
     ['v link Atomic.t] that OCaml 5 atomics are. It is mutable so the
     compiler never shares, lifts or caches a node; no code assigns it
     directly. *)
  type 'v link =
    | Nil
    | Node of { mutable next : 'v link; key : K.t; value : 'v }
    | Dead of 'v link

  (* A position is the cell whose link leads to the next key: the list
     head, or the [next] field of the last node passed while live. *)
  type 'v position = 'v link Atomic.t

  type 'v t = { head : 'v link Atomic.t; casc : Sync.Cas_counter.t }

  (* Only ever applied to a [Node]. *)
  let cell (n : 'v link) : 'v link Atomic.t = Obj.magic n

  let create () =
    { head = Sync.Padded.atomic Nil; casc = Sync.Cas_counter.create () }

  let head_position t = t.head

  let counted_cas t c expected desired =
    Sync.Cas_counter.incr t.casc;
    Atomic.compare_and_set c expected desired

  let is_dead c =
    match Atomic.get c with Dead _ -> true | Nil | Node _ -> false

  (* Find (left, right): [right] is the first node with key >= k reachable
     from [start] (or [Nil]); [left] is the cell of the last node before
     it that was live when passed, and it held exactly [right] when
     checked (dead nodes in between have been snipped). [right] was
     unmarked when checked. A [Dead] payload is always a live link, so
     [curr] is never [Dead]. *)
  let rec search t start k =
    match Atomic.get start with
    | Dead _ -> search t t.head k (* the start node itself was deleted *)
    | first -> walk t k start first first

  and walk t k left left_link curr =
    match curr with
    | Node n -> (
        match Atomic.get (cell curr) with
        | Dead succ -> walk t k left left_link succ (* skip marked node *)
        | succ ->
            if K.compare n.key k >= 0 then finish t k left left_link curr
            else walk t k (cell curr) succ succ)
    | Nil | Dead _ -> finish t k left left_link curr

  and finish t k left left_link right =
    (* Physically unlink the marked nodes between left and right, then
       Harris's re-check: right must still be unmarked, so the caller may
       decide presence/absence at this instant. *)
    if left_link == right || counted_cas t left left_link right then
      match right with
      | Node _ when is_dead (cell right) -> search t t.head k
      | _ -> (left, right)
    else search t t.head k

  (* A stale position (its node was deleted) could hide newly inserted
     keys; fall back to the head. *)
  let start_of t pos = if is_dead pos then t.head else pos

  let rec insert_loop t start k v =
    let left, right = search t start k in
    match right with
    | Node r when K.compare r.key k = 0 -> (false, left)
    | _ ->
        let n = Node { next = right; key = k; value = v } in
        if counted_cas t left right n then (true, left)
        else insert_loop t t.head k v

  let rec remove_loop t start k =
    let left, right = search t start k in
    match right with
    | Node r when K.compare r.key k = 0 -> (
        let c = cell right in
        match Atomic.get c with
        | Dead _ ->
            (* Concurrently deleted; search again so we either fail to find
               the key or find a fresh live node with the same key. *)
            remove_loop t t.head k
        | succ ->
            if counted_cas t c succ (Dead succ) then begin
              (* Best-effort physical unlink; a failure leaves it to the
                 next traversal. *)
              ignore (counted_cas t left right succ);
              (Some r.value, left)
            end
            else remove_loop t t.head k)
    | _ -> (None, left)

  (* Wait-free read-only lookup: walk skipping marked nodes, no CAS. *)
  let rec find_walk k last_live curr =
    match curr with
    | Node n -> (
        match Atomic.get (cell curr) with
        | Dead succ -> find_walk k last_live succ
        | succ ->
            let c = K.compare n.key k in
            if c < 0 then find_walk k (cell curr) succ
            else ((if c = 0 then Some n.value else None), last_live))
    | Nil | Dead _ -> (None, last_live)

  let find_in k start =
    match Atomic.get start with
    | Dead first | first -> find_walk k start first

  let insert t k v = fst (insert_loop t t.head k v)
  let remove t k = fst (remove_loop t t.head k)
  let find t k = fst (find_in k t.head)

  let insert_from t pos k v = insert_loop t (start_of t pos) k v
  let remove_from t pos k = remove_loop t (start_of t pos) k
  let find_from t pos k = find_in k (start_of t pos)

  let bindings t =
    let rec loop acc curr =
      match curr with
      | Node n -> (
          match Atomic.get (cell curr) with
          | Dead succ -> loop acc succ
          | succ -> loop ((n.key, n.value) :: acc) succ)
      | Nil | Dead _ -> List.rev acc
    in
    loop [] (Atomic.get t.head)

  let is_empty t = bindings t = []
  let size t = List.length (bindings t)
  let cas_count t = Sync.Cas_counter.total t.casc
  let reset_cas_count t = Sync.Cas_counter.reset t.casc
end
