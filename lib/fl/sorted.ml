module Future = Futures.Future

let sorted cmp ring =
  let ops = Array.init (Opbuf.length ring) (Opbuf.get ring) in
  Array.stable_sort cmp ops;
  ops

module Set (K : Lockfree.Harris_list.KEY) = struct
  module L = Lockfree.Harris_list.Make (K)

  type kind = Insert | Remove | Contains
  type op = { key : K.t; kind : kind; future : bool Future.t }

  let pending op = Future.is_pending op.future
  let poison op = Window.orphan op.future

  let apply list ring =
    let ops = sorted (fun a b -> K.compare a.key b.key) ring in
    let n = Array.length ops in
    let pos = ref (L.head_position list) in
    let i = ref 0 in
    while !i < n do
      let j0 = !i and key = ops.(!i).key in
      let j = ref (j0 + 1) in
      while !j < n && K.compare ops.(!j).key key = 0 do incr j done;
      (* The group's last insert/remove fixes its net effect on the list,
         whatever the initial presence; [Contains] means none. *)
      let net = ref Contains in
      for g = j0 to !j - 1 do
        match ops.(g).kind with Contains -> () | k -> net := k
      done;
      let presence, p =
        match !net with
        | Contains -> L.contains_from list !pos key
        | Insert ->
            let changed, p = L.insert_from list !pos key in
            (not changed, p)
        | Remove -> L.remove_from list !pos key
      in
      let s = ref presence in
      for g = j0 to !j - 1 do
        let op = ops.(g) in
        match op.kind with
        | Insert ->
            Future.fulfil op.future (not !s);
            s := true
        | Remove ->
            Future.fulfil op.future !s;
            s := false
        | Contains -> Future.fulfil op.future !s
      done;
      pos := p;
      i := !j
    done
end

module Map (K : Lockfree.Harris_kv.KEY) = struct
  module M = Lockfree.Harris_kv.Make (K)

  type 'v op =
    | Insert of K.t * 'v * bool Future.t
    | Find of K.t * 'v option Future.t
    | Remove of K.t * 'v option Future.t

  let key = function Insert (k, _, _) | Find (k, _) | Remove (k, _) -> k

  let pending = function
    | Insert (_, _, f) -> Future.is_pending f
    | Find (_, f) | Remove (_, f) -> Future.is_pending f

  let poison = function
    | Insert (_, _, f) -> Window.orphan f
    | Find (_, f) | Remove (_, f) -> Window.orphan f

  let apply kv ring =
    let ops = sorted (fun a b -> K.compare (key a) (key b)) ring in
    let pos = ref (M.head_position kv) and applied = ref 0 in
    for i = 0 to Array.length ops - 1 do
      let op = ops.(i) in
      if pending op then begin
        incr applied;
        match op with
        | Insert (k, v, f) ->
            let r, p = M.insert_from kv !pos k v in
            pos := p;
            ignore (Future.try_fulfil f r)
        | Find (k, f) ->
            let r, p = M.find_from kv !pos k in
            pos := p;
            ignore (Future.try_fulfil f r)
        | Remove (k, f) ->
            let r, p = M.remove_from kv !pos k in
            pos := p;
            ignore (Future.try_fulfil f r)
      end
    done;
    !applied
end
