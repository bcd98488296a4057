(* Reference work for measuring the host's speed: string hashing, table
   lookups, allocation, a sort and a balanced-tree build, in plain OCaml
   that uses none of the program's code, so no change to the program can
   make it faster or slower.  Its processor time says how fast the host
   runs this kind of code at the moment. *)

module M = Map.Make (Int)

let keys = 30_011

let run () =
  let h = Hashtbl.create 16 in
  for i = 0 to keys - 1 do
    Hashtbl.replace h (string_of_int (i * 7919 mod keys)) i
  done;
  let s = ref 0 in
  for i = 0 to (2 * keys) - 1 do
    match Hashtbl.find_opt h (string_of_int i) with Some v -> s := !s + v | None -> ()
  done;
  let l = List.sort compare (List.init (2 * keys) (fun i -> i * 7919 mod keys)) in
  let m = List.fold_left (fun m x -> M.add x x m) M.empty (List.filteri (fun i _ -> i mod 4 = 0) l) in
  ignore (Sys.opaque_identity (!s + M.cardinal m))
