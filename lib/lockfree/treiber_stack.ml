type 'a node = { value : 'a; mutable next : 'a node option }

type 'a t = { head : 'a node option Atomic.t; casc : Sync.Cas_counter.t }

let create () =
  { head = Sync.Padded.atomic None; casc = Sync.Cas_counter.create () }

let cas t expected desired =
  Sync.Cas_counter.incr t.casc;
  Atomic.compare_and_set t.head expected desired

(* Every retry loop below makes one attempt first and allocates its
   backoff only once that attempt's CAS has failed; the loops are
   top-level functions, so an uncontended call builds no closure. *)

(* One attempt to splice the private chain [top .. bottom] (with
   [top = Some top_node]) onto the current head. Only the bottom link is
   patched on a retry. *)
let try_link t top bottom =
  let head = Atomic.get t.head in
  bottom.next <- head;
  cas t head top

let rec link_with t b top bottom =
  Sync.Backoff.once b;
  if not (try_link t top bottom) then link_with t b top bottom

let link t top bottom =
  if not (try_link t top bottom) then
    link_with t (Sync.Backoff.create ()) top bottom

(* The [n]-th node of the chain from [node] ([node] being the first), or
   its last node if it is shorter. *)
let rec nth_or_last node n =
  if n <= 1 then node
  else match node.next with None -> node | Some nxt -> nth_or_last nxt (n - 1)

(* One attempt to detach the top [n] nodes of the reading [head] with
   one CAS. A detached chain keeps its links: the node below the last
   one taken is still reachable from it, so readers count to [n]. *)
let try_detach t head n =
  match head with
  | None -> true
  | Some first -> cas t head (nth_or_last first n).next

let rec detach_with t b n =
  Sync.Backoff.once b;
  let head = Atomic.get t.head in
  if try_detach t head n then head else detach_with t b n

(* Detach the top [n] nodes (fewer if the stack runs out); returns the
   head that was detached from, [None] if the stack was empty. *)
let detach t n =
  let head = Atomic.get t.head in
  if try_detach t head n then head
  else detach_with t (Sync.Backoff.create ()) n

let push t x =
  let node = { value = x; next = None } in
  link t (Some node) node

let pop t = match detach t 1 with None -> None | Some n -> Some n.value

let peek t =
  match Atomic.get t.head with None -> None | Some n -> Some n.value

(* Build the chain [xn -> ... -> x1] once; returns (top, bottom). *)
let chain_of_list xs =
  match xs with
  | [] -> None
  | x1 :: rest ->
      let bottom = { value = x1; next = None } in
      let top = List.fold_left (fun below x -> { value = x; next = Some below }) bottom rest in
      Some (top, bottom)

let push_list t xs =
  match chain_of_list xs with
  | None -> ()
  | Some (top, bottom) -> link t (Some top) bottom

(* Indexed-segment variants of [push_list]/[pop_many]: the FL flush
   paths feed them straight from a ring buffer, so a whole pending
   window is spliced with one CAS and no transient list. *)

let push_seg t ~n ~get =
  if n < 0 then invalid_arg "Treiber_stack.push_seg: negative count";
  if n > 0 then begin
    (* Index 0 is pushed deepest (the oldest pending push). *)
    let bottom = { value = get 0; next = None } in
    let top = ref bottom in
    for i = 1 to n - 1 do
      top := { value = get i; next = Some !top }
    done;
    link t (Some !top) bottom
  end

(* Hand the values of a detached chain to [f], top first, stopping after
   the [n]-th; returns the count handed out. *)
let rec deliver f n node i =
  f i node.value;
  let i = i + 1 in
  if i = n then i
  else match node.next with None -> i | Some nxt -> deliver f n nxt i

let pop_seg t ~n ~f =
  if n < 0 then invalid_arg "Treiber_stack.pop_seg: negative count";
  if n = 0 then 0
  else match detach t n with None -> 0 | Some first -> deliver f n first 0

let pop_many t n =
  if n < 0 then invalid_arg "Treiber_stack.pop_many: negative count";
  let acc = ref [] in
  ignore (pop_seg t ~n ~f:(fun _ v -> acc := v :: !acc) : int);
  List.rev !acc

let is_empty t = Atomic.get t.head = None

let to_list t =
  let rec loop acc = function
    | None -> List.rev acc
    | Some n -> loop (n.value :: acc) n.next
  in
  loop [] (Atomic.get t.head)

let length t = List.length (to_list t)

let cas_count t = Sync.Cas_counter.total t.casc
let reset_cas_count t = Sync.Cas_counter.reset t.casc
