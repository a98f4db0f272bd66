(* Distinct values and the check that every removed value was added
   exactly once. Every value a client adds is (domain lsl 40) lor seq,
   seq counting up from 0 per domain. Removers keep, in constant memory,
   a count and a sum of an injective hash of what they removed; at the
   end the added values, by construction, must equal the removed ones
   plus the structure's contents as multisets of hashes: a value lost,
   invented or removed twice changes the count or the sum. *)

let value ~tid ~seq = (tid lsl 40) lor seq
let producer v = v lsr 40
let seq v = v land ((1 lsl 40) - 1)

(* Multiplication by an odd constant and an xorshift are both bijective
   on 63-bit ints, so distinct values never share a hash. *)
let hash v =
  let h = v * 0x5851F42D4C957F2D in
  h lxor (h lsr 29)

(* What one client removed. *)
type removals = {
  max_seq : int array; (* per producing domain *)
  mutable count : int;
  mutable sum : int;
  mutable violation : string option;
}

let removals producers = { max_seq = Array.make producers (-1); count = 0; sum = 0; violation = None }

let note_removed r v =
  let p = producer v in
  if p < 0 || p >= Array.length r.max_seq then begin
    if r.violation = None then r.violation <- Some (Printf.sprintf "removed value %d was never added" v)
  end
  else begin
    if seq v > r.max_seq.(p) then r.max_seq.(p) <- seq v;
    r.count <- r.count + 1;
    r.sum <- r.sum + hash v
  end

(* Check the removals of every client against what each producer added
   ([added.(p)] values) and the structure's final [contents]; returns
   the first violation. *)
let check rs ~added ~contents =
  match Array.find_map (fun r -> r.violation) rs with
  | Some v -> Some v
  | None -> (
      let producers = Array.length added in
      let bad_producer =
        List.init producers Fun.id
        |> List.find_opt (fun p -> Array.exists (fun r -> r.max_seq.(p) >= added.(p)) rs)
      in
      let stray = List.find_opt (fun v -> producer v >= producers || seq v >= added.(producer v)) contents in
      match (bad_producer, stray) with
      | Some p, _ -> Some (Printf.sprintf "a removed value of domain %d was never added" p)
      | None, Some v -> Some (Printf.sprintf "value %d left in the structure was never added" v)
      | None, None ->
          let total = Array.fold_left ( + ) 0 added in
          let removed = Array.fold_left (fun n r -> n + r.count) 0 rs in
          let left = List.length contents in
          let sum_added = ref 0 in
          Array.iteri
            (fun p n ->
              for s = 0 to n - 1 do
                sum_added := !sum_added + hash (value ~tid:p ~seq:s)
              done)
            added;
          let sum_out =
            Array.fold_left (fun n r -> n + r.sum) 0 rs + List.fold_left (fun n v -> n + hash v) 0 contents
          in
          if total <> removed + left then
            Some (Printf.sprintf "%d values added but %d removed + %d left" total removed left)
          else if !sum_added <> sum_out then
            Some "the values removed and left are not the values added (one lost, one duplicated)"
          else None)
