module type KEY = Harris_kv.KEY

module Make (K : KEY) = struct
  module M = Harris_kv.Make (K)

  type t = unit M.t
  type position = unit M.position

  let create = M.create
  let head_position = M.head_position
  let found (r, pos) = (Option.is_some r, pos)
  let insert t k = M.insert t k ()
  let remove t k = Option.is_some (M.remove t k)
  let contains t k = Option.is_some (M.find t k)
  let insert_from t pos k = M.insert_from t pos k ()
  let remove_from t pos k = found (M.remove_from t pos k)
  let contains_from t pos k = found (M.find_from t pos k)
  let is_empty = M.is_empty
  let length = M.size
  let to_list t = List.map fst (M.bindings t)
  let cas_count = M.cas_count
  let reset_cas_count = M.reset_cas_count
end
