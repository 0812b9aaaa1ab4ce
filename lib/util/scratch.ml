type 'a t = { key : (int, 'a array) Hashtbl.t Domain.DLS.key; fill : 'a }

let create fill = { key = Domain.DLS.new_key (fun () -> Hashtbl.create 4); fill }

let get t n =
  let tbl = Domain.DLS.get t.key in
  match Hashtbl.find_opt tbl n with
  | Some a -> a
  | None ->
    let a = Array.make n t.fill in
    Hashtbl.add tbl n a;
    a
