(* One heap block per node. The node pointed to by [head] is a dummy; the
   logical queue content is the chain strictly after it. [next] is field
   0 of the [Node] block (tag 0, scannable) and is only ever read or
   CASed through [cell], which views the block as the one-field
   ['a node Atomic.t] that OCaml 5 atomics are — the layout of
   {!Harris_kv}'s nodes. It is mutable so the compiler never shares,
   lifts or caches a node; no code assigns it directly. [value] is
   mutable only so a delivered element can be replaced by [gone],
   keeping the new dummy from pinning it. *)
type 'a node = Nil | Node of { mutable next : 'a node; mutable value : 'a }

type 'a t = {
  head : 'a node Atomic.t;
  tail : 'a node Atomic.t;
  casc : Sync.Cas_counter.t;
}

(* Only ever applied to a [Node]. *)
let cell (n : 'a node) : 'a node Atomic.t = Obj.magic n

(* The value of a dummy: a private block no caller can hold, recognised
   by physical equality like [Fl.Opbuf]'s tombstone. Never handed out. *)
let gone : Obj.t = Obj.repr (ref ())
let is_gone (v : 'a) = Obj.repr v == gone
let make_node v = Node { next = Nil; value = v }

let value = function Node n -> n.value | Nil -> assert false

let drop = function
  | Node n -> n.value <- Obj.magic gone
  | Nil -> assert false

let create () =
  let dummy = make_node (Obj.magic gone) in
  (* Head and tail are attacked by disjoint parties (dequeuers vs
     enqueuers); padding keeps either side's CAS traffic off the other's
     line. *)
  {
    head = Sync.Padded.atomic dummy;
    tail = Sync.Padded.atomic dummy;
    casc = Sync.Cas_counter.create ();
  }

let counted_cas t c expected desired =
  Sync.Cas_counter.incr t.casc;
  Atomic.compare_and_set c expected desired

(* One attempt to splice the pre-linked chain [first .. last] after the
   current last node, then swing the tail to [last]. Helping a lagging
   tail is not a failed attempt. *)
let rec try_splice t first last =
  let tl = Atomic.get t.tail in
  match Atomic.get (cell tl) with
  | Nil ->
      counted_cas t (cell tl) Nil first
      && begin
           (* Lag repair is best-effort: a failure means someone helped. *)
           ignore (counted_cas t t.tail tl last);
           true
         end
  | nxt ->
      (* Tail is lagging; help swing it and retry. *)
      ignore (counted_cas t t.tail tl nxt);
      try_splice t first last

(* The backoff is allocated only once a splice CAS has failed. *)
let enqueue_chain t first last =
  if not (try_splice t first last) then begin
    let b = Sync.Backoff.create () in
    Sync.Backoff.once b;
    while not (try_splice t first last) do
      Sync.Backoff.once b
    done
  end

let enqueue t x =
  let n = make_node x in
  enqueue_chain t n n

let enqueue_list t xs =
  match xs with
  | [] -> ()
  | x1 :: rest ->
      let first = make_node x1 in
      let last =
        List.fold_left
          (fun prev x ->
            let n = make_node x in
            Atomic.set (cell prev) n;
            n)
          first rest
      in
      enqueue_chain t first last

(* Indexed-segment variants of [enqueue_list]/[dequeue_many] for the FL
   flush paths: the whole window is spliced from / delivered to a ring
   buffer without building an intermediate list. [enqueue_seg] builds
   its chain newest-first, so every link is the initialising write of
   its node: the chain is private until the splice CAS publishes it. *)
let enqueue_seg t ~n ~get =
  if n < 0 then invalid_arg "Ms_queue.enqueue_seg: negative count";
  if n > 0 then begin
    let last = make_node (get (n - 1)) in
    let first = ref last in
    for i = n - 2 downto 0 do
      first := Node { next = !first; value = get i }
    done;
    enqueue_chain t !first last
  end

(* The up-to-[n]-th node after [node], helping the tail forward whenever
   we are about to pass it so it never ends up behind the head. *)
let rec probe t n node count =
  if count = n then node
  else
    match Atomic.get (cell node) with
    | Nil -> node
    | nxt ->
        let tl = Atomic.get t.tail in
        if tl == node then ignore (counted_cas t t.tail tl nxt);
        probe t n nxt (count + 1)

(* Hand the detached chain after [node] up to [last] to [f] in FIFO
   order; returns the count delivered. [last] is the new dummy and must
   not pin the value it handed out; the others are garbage anyway. *)
let rec deliver f last node i =
  let nxt = Atomic.get (cell node) in
  f i (value nxt);
  drop nxt;
  if nxt == last then i + 1 else deliver f last nxt (i + 1)

(* One attempt to detach up to [n] nodes after the dummy with one head
   CAS. Returns the count delivered, or -1 if the head CAS lost. Values
   are read only after the CAS, so none is ever [gone]. *)
let try_dequeue_seg t n f =
  let hd = Atomic.get t.head in
  let last = probe t n hd 0 in
  if last == hd then 0
  else if counted_cas t t.head hd last then deliver f last hd 0
  else -1

let dequeue_seg t ~n ~f =
  if n < 0 then invalid_arg "Ms_queue.dequeue_seg: negative count";
  if n = 0 then 0
  else
    let k = try_dequeue_seg t n f in
    if k >= 0 then k
    else
      let b = Sync.Backoff.create () in
      let rec retry () =
        Sync.Backoff.once b;
        let k = try_dequeue_seg t n f in
        if k >= 0 then k else retry ()
      in
      retry ()

let dequeue_many t n =
  if n < 0 then invalid_arg "Ms_queue.dequeue_many: negative count";
  let acc = ref [] in
  ignore (dequeue_seg t ~n ~f:(fun _ v -> acc := v :: !acc) : int);
  List.rev !acc

let dequeue t =
  let r = ref None in
  ignore (dequeue_seg t ~n:1 ~f:(fun _ v -> r := Some v) : int);
  !r

(* The first node's value is [gone] once a racing dequeuer has delivered
   it; the head has then moved, so look again. *)
let rec peek t =
  match Atomic.get (cell (Atomic.get t.head)) with
  | Nil -> None
  | first ->
      let v = value first in
      if is_gone v then peek t else Some v

let is_empty t = Atomic.get (cell (Atomic.get t.head)) == Nil

let to_list t =
  let rec loop acc node =
    match Atomic.get (cell node) with
    | Nil -> List.rev acc
    | nxt ->
        let v = value nxt in
        loop (if is_gone v then acc else v :: acc) nxt
  in
  loop [] (Atomic.get t.head)

let length t = List.length (to_list t)

let cas_count t = Sync.Cas_counter.total t.casc
let reset_cas_count t = Sync.Cas_counter.reset t.casc
