module Make (K : Seqds.Seq_list.KEY) = struct
  module S = Seqds.Seq_list.Make (K)

  type op = Insert of K.t | Remove of K.t | Contains of K.t

  type t = { seq : S.t; fc : (op, bool) Flat_combining.t }

  type handle = (op, bool) Flat_combining.handle

  let create () =
    let seq = S.create () in
    let apply = function
      | Insert k -> S.insert seq k
      | Remove k -> S.remove seq k
      | Contains k -> S.contains seq k
    in
    { seq; fc = Flat_combining.create ~apply () }

  let handle t = Flat_combining.handle t.fc
  let insert h k = Flat_combining.apply h (Insert k)
  let remove h k = Flat_combining.apply h (Remove k)
  let contains h k = Flat_combining.apply h (Contains k)
  let length t = S.length t.seq
  let to_list t = S.to_list t.seq
  let combiner_passes t = Flat_combining.combiner_passes t.fc
  let combiner_takeovers t = Flat_combining.combiner_takeovers t.fc
end
