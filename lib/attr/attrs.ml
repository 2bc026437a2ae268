module M = Map.Make (String)

type t = Value.t M.t

let empty = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal
let add name v t = M.add name v t
let remove = M.remove
let find name t = M.find_opt name t
let find_exn name t = match M.find_opt name t with Some v -> v | None -> raise Not_found
let mem = M.mem

let float name t =
  match M.find_opt name t with
  | Some (Value.Int i) -> Some (float_of_int i)
  | Some (Value.Float f) -> Some f
  | Some (Value.Bool _ | Value.String _ | Value.Range _) | None -> None

let string name t =
  match M.find_opt name t with Some (Value.String s) -> Some s | Some _ | None -> None

let union a b = M.union (fun _ _ vb -> Some vb) a b
let of_list l = List.fold_left (fun acc (k, v) -> M.add k v acc) M.empty l
let to_list t = M.bindings t
let fold f t init = M.fold f t init
let iter = M.iter
let map f t = M.mapi f t
let equal = M.equal Value.equal

let pp ppf t =
  let pp_binding ppf (k, v) = Format.fprintf ppf "%s=%a" k Value.pp v in
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_binding) (M.bindings t)
