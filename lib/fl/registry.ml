module Future = Futures.Future

module Int_key = struct
  type t = int

  let compare = Int.compare
end

module Harris = Lockfree.Harris_list.Make (Int_key)
module WL = Weak_list.Make (Int_key)
module ML = Medium_list.Make (Int_key)
module SL = Strong_list.Make (Int_key)
module TL = Txn_list.Make (Int_key)
module FCSet = Combining.Fc_set.Make (Int_key)

(* -------------------------------------------------------------------- *)
(* Stacks                                                               *)

type stack_ops = {
  s_push : int -> unit Future.t;
  s_pop : unit -> int option Future.t;
  s_flush : unit -> unit;
  s_abandon : unit -> int;
}

type stack_instance = {
  s_handle : unit -> stack_ops;
  s_drain : unit -> unit;
  s_cas_count : unit -> int;
  s_contents : unit -> int list;
}

type stack_impl = { s_name : string; s_make : unit -> stack_instance }

let lockfree_stack () =
  let s = Lockfree.Treiber_stack.create () in
  {
    s_handle =
      (fun () ->
        {
          s_push =
            (fun x ->
              Lockfree.Treiber_stack.push s x;
              Future.of_value ());
          s_pop = (fun () -> Future.of_value (Lockfree.Treiber_stack.pop s));
          s_flush = ignore;
          s_abandon = (fun () -> 0);
        });
    s_drain = ignore;
    s_cas_count = (fun () -> Lockfree.Treiber_stack.cas_count s);
    s_contents = (fun () -> Lockfree.Treiber_stack.to_list s);
  }

(* A weak/medium stack: per-handle pending windows over a shared Treiber
   stack, nothing to drain. *)
let handle_stack shared ~handle ~push ~pop ~flush ~abandon =
  {
    s_handle =
      (fun () ->
        let h = handle () in
        {
          s_push = (fun x -> push h x);
          s_pop = (fun () -> pop h);
          s_flush = (fun () -> flush h);
          s_abandon = (fun () -> abandon h);
        });
    s_drain = ignore;
    s_cas_count = (fun () -> Lockfree.Treiber_stack.cas_count shared);
    s_contents = (fun () -> Lockfree.Treiber_stack.to_list shared);
  }

let weak_stack_with ~elimination () =
  let s = Weak_stack.create ~elimination () in
  handle_stack (Weak_stack.shared s)
    ~handle:(fun () -> Weak_stack.handle s)
    ~push:Weak_stack.push ~pop:Weak_stack.pop ~flush:Weak_stack.flush
    ~abandon:Weak_stack.abandon

let weak_stack () = weak_stack_with ~elimination:true ()

let medium_stack () =
  let s = Medium_stack.create () in
  handle_stack (Medium_stack.shared s)
    ~handle:(fun () -> Medium_stack.handle s)
    ~push:Medium_stack.push ~pop:Medium_stack.pop ~flush:Medium_stack.flush
    ~abandon:Medium_stack.abandon

let strong_stack () =
  let s = Strong_stack.create () in
  {
    s_handle =
      (fun () ->
        {
          s_push = (fun x -> Strong_stack.push s x);
          s_pop = (fun () -> Strong_stack.pop s);
          s_flush = ignore;
          s_abandon = (fun () -> 0);
        });
    s_drain = (fun () -> Strong_stack.drain s);
    s_cas_count = (fun () -> Strong_stack.pending_cas_count s);
    s_contents = (fun () -> Strong_stack.to_list s);
  }

let fc_stack () =
  let s = Combining.Fc_stack.create () in
  {
    s_handle =
      (fun () ->
        let h = Combining.Fc_stack.handle s in
        {
          s_push =
            (fun x ->
              Combining.Fc_stack.push h x;
              Future.of_value ());
          s_pop = (fun () -> Future.of_value (Combining.Fc_stack.pop h));
          s_flush = ignore;
          s_abandon = (fun () -> 0);
        });
    s_drain = ignore;
    (* Flat combining synchronizes through its lock and publication list,
       not CAS on the structure; report 0. *)
    s_cas_count = (fun () -> 0);
    s_contents = (fun () -> Combining.Fc_stack.to_list s);
  }

let elim_stack () =
  let s = Lockfree.Elimination_stack.create () in
  {
    s_handle =
      (fun () ->
        {
          s_push =
            (fun x ->
              Lockfree.Elimination_stack.push s x;
              Future.of_value ());
          s_pop =
            (fun () -> Future.of_value (Lockfree.Elimination_stack.pop s));
          s_flush = ignore;
          s_abandon = (fun () -> 0);
        });
    s_drain = ignore;
    s_cas_count = (fun () -> Lockfree.Elimination_stack.cas_count s);
    s_contents = (fun () -> Lockfree.Elimination_stack.to_list s);
  }

let stack_impls =
  [
    { s_name = "lockfree"; s_make = lockfree_stack };
    { s_name = "elim"; s_make = elim_stack };
    { s_name = "flatcomb"; s_make = fc_stack };
    { s_name = "weak"; s_make = weak_stack };
    { s_name = "medium"; s_make = medium_stack };
    { s_name = "strong"; s_make = strong_stack };
  ]

(* -------------------------------------------------------------------- *)
(* Queues                                                               *)

type queue_ops = {
  q_enq : int -> unit Future.t;
  q_deq : unit -> int option Future.t;
  q_flush : unit -> unit;
  q_abandon : unit -> int;
}

type queue_instance = {
  q_handle : unit -> queue_ops;
  q_drain : unit -> unit;
  q_cas_count : unit -> int;
  q_contents : unit -> int list;
}

type queue_impl = { q_name : string; q_make : unit -> queue_instance }

let lockfree_queue () =
  let q = Lockfree.Ms_queue.create () in
  {
    q_handle =
      (fun () ->
        {
          q_enq =
            (fun x ->
              Lockfree.Ms_queue.enqueue q x;
              Future.of_value ());
          q_deq = (fun () -> Future.of_value (Lockfree.Ms_queue.dequeue q));
          q_flush = ignore;
          q_abandon = (fun () -> 0);
        });
    q_drain = ignore;
    q_cas_count = (fun () -> Lockfree.Ms_queue.cas_count q);
    q_contents = (fun () -> Lockfree.Ms_queue.to_list q);
  }

(* A weak/medium queue: per-handle pending windows over a shared MS
   queue, nothing to drain. *)
let handle_queue shared ~handle ~enqueue ~dequeue ~flush ~abandon =
  {
    q_handle =
      (fun () ->
        let h = handle () in
        {
          q_enq = (fun x -> enqueue h x);
          q_deq = (fun () -> dequeue h);
          q_flush = (fun () -> flush h);
          q_abandon = (fun () -> abandon h);
        });
    q_drain = ignore;
    q_cas_count = (fun () -> Lockfree.Ms_queue.cas_count shared);
    q_contents = (fun () -> Lockfree.Ms_queue.to_list shared);
  }

let weak_queue () =
  let q = Weak_queue.create () in
  handle_queue (Weak_queue.shared q)
    ~handle:(fun () -> Weak_queue.handle q)
    ~enqueue:Weak_queue.enqueue ~dequeue:Weak_queue.dequeue
    ~flush:Weak_queue.flush ~abandon:Weak_queue.abandon

let medium_queue () =
  let q = Medium_queue.create () in
  handle_queue (Medium_queue.shared q)
    ~handle:(fun () -> Medium_queue.handle q)
    ~enqueue:Medium_queue.enqueue ~dequeue:Medium_queue.dequeue
    ~flush:Medium_queue.flush ~abandon:Medium_queue.abandon

let strong_queue () =
  let q = Strong_queue.create () in
  {
    q_handle =
      (fun () ->
        {
          q_enq = (fun x -> Strong_queue.enqueue q x);
          q_deq = (fun () -> Strong_queue.dequeue q);
          q_flush = ignore;
          q_abandon = (fun () -> 0);
        });
    q_drain = (fun () -> Strong_queue.drain q);
    q_cas_count = (fun () -> Strong_queue.pending_cas_count q);
    q_contents = (fun () -> Strong_queue.to_list q);
  }

let fc_queue () =
  let q = Combining.Fc_queue.create () in
  {
    q_handle =
      (fun () ->
        let h = Combining.Fc_queue.handle q in
        {
          q_enq =
            (fun x ->
              Combining.Fc_queue.enqueue h x;
              Future.of_value ());
          q_deq = (fun () -> Future.of_value (Combining.Fc_queue.dequeue h));
          q_flush = ignore;
          q_abandon = (fun () -> 0);
        });
    q_drain = ignore;
    q_cas_count = (fun () -> 0);
    q_contents = (fun () -> Combining.Fc_queue.to_list q);
  }

let queue_impls =
  [
    { q_name = "lockfree"; q_make = lockfree_queue };
    { q_name = "flatcomb"; q_make = fc_queue };
    { q_name = "weak"; q_make = weak_queue };
    { q_name = "medium"; q_make = medium_queue };
    { q_name = "strong"; q_make = strong_queue };
  ]

(* -------------------------------------------------------------------- *)
(* Linked-list sets                                                     *)

type set_ops = {
  l_insert : int -> bool Future.t;
  l_remove : int -> bool Future.t;
  l_contains : int -> bool Future.t;
  l_flush : unit -> unit;
  l_abandon : unit -> int;
}

type set_instance = {
  l_handle : unit -> set_ops;
  l_drain : unit -> unit;
  l_cas_count : unit -> int;
  l_contents : unit -> int list;
}

type set_impl = { l_name : string; l_make : unit -> set_instance }

let lockfree_set () =
  let l = Harris.create () in
  {
    l_handle =
      (fun () ->
        {
          l_insert = (fun k -> Future.of_value (Harris.insert l k));
          l_remove = (fun k -> Future.of_value (Harris.remove l k));
          l_contains = (fun k -> Future.of_value (Harris.contains l k));
          l_flush = ignore;
          l_abandon = (fun () -> 0);
        });
    l_drain = ignore;
    l_cas_count = (fun () -> Harris.cas_count l);
    l_contents = (fun () -> Harris.to_list l);
  }

(* A weak/medium/txn set: per-handle pending windows over a shared Harris
   list, nothing to drain. *)
let handle_set shared ~handle ~insert ~remove ~contains ~flush ~abandon =
  {
    l_handle =
      (fun () ->
        let h = handle () in
        {
          l_insert = (fun k -> insert h k);
          l_remove = (fun k -> remove h k);
          l_contains = (fun k -> contains h k);
          l_flush = (fun () -> flush h);
          l_abandon = (fun () -> abandon h);
        });
    l_drain = ignore;
    l_cas_count = (fun () -> Harris.cas_count shared);
    l_contents = (fun () -> Harris.to_list shared);
  }

let weak_set () =
  let l = WL.create () in
  handle_set (WL.shared l)
    ~handle:(fun () -> WL.handle l)
    ~insert:WL.insert ~remove:WL.remove ~contains:WL.contains ~flush:WL.flush
    ~abandon:WL.abandon

let medium_set_with ~resume_hint =
  let l = ML.create ~resume_hint () in
  handle_set (ML.shared l)
    ~handle:(fun () -> ML.handle l)
    ~insert:ML.insert ~remove:ML.remove ~contains:ML.contains ~flush:ML.flush
    ~abandon:ML.abandon

let medium_set () = medium_set_with ~resume_hint:true

let strong_set_with ~sort_batch =
  let l = SL.create ~sort_batch () in
  {
    l_handle =
      (fun () ->
        {
          l_insert = (fun k -> SL.insert l k);
          l_remove = (fun k -> SL.remove l k);
          l_contains = (fun k -> SL.contains l k);
          l_flush = ignore;
          l_abandon = (fun () -> 0);
        });
    l_drain = (fun () -> SL.drain l);
    l_cas_count = (fun () -> SL.pending_cas_count l);
    l_contents = (fun () -> SL.to_list l);
  }

let strong_set () = strong_set_with ~sort_batch:true

let txn_set () =
  let l = TL.create () in
  handle_set (TL.shared l)
    ~handle:(fun () -> TL.handle l)
    ~insert:TL.insert ~remove:TL.remove ~contains:TL.contains ~flush:TL.flush
    ~abandon:TL.abandon

let fc_set () =
  let l = FCSet.create () in
  {
    l_handle =
      (fun () ->
        let h = FCSet.handle l in
        {
          l_insert = (fun k -> Future.of_value (FCSet.insert h k));
          l_remove = (fun k -> Future.of_value (FCSet.remove h k));
          l_contains = (fun k -> Future.of_value (FCSet.contains h k));
          l_flush = ignore;
          l_abandon = (fun () -> 0);
        });
    l_drain = ignore;
    l_cas_count = (fun () -> 0);
    l_contents = (fun () -> FCSet.to_list l);
  }

let set_impls =
  [
    { l_name = "lockfree"; l_make = lockfree_set };
    { l_name = "flatcomb"; l_make = fc_set };
    { l_name = "weak"; l_make = weak_set };
    { l_name = "medium"; l_make = medium_set };
    { l_name = "strong"; l_make = strong_set };
    { l_name = "txn"; l_make = txn_set };
  ]

let find_stack name = List.find (fun i -> i.s_name = name) stack_impls
let find_queue name = List.find (fun i -> i.q_name = name) queue_impls
let find_set name = List.find (fun i -> i.l_name = name) set_impls
