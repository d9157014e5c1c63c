type mark = White | Grey | Black

let acyclic ~successors n =
  let marks = Array.make n White in
  let exception Cycle of int list in
  let rec visit path i =
    match marks.(i) with
    | Black -> ()
    | Grey ->
        (* the path from the previous occurrence of [i] is a cycle *)
        let rec cut acc = function
          | [] -> acc
          | x :: rest -> if x = i then x :: acc else cut (x :: acc) rest
        in
        raise (Cycle (cut [ i ] path))
    | White ->
        marks.(i) <- Grey;
        List.iter (visit (i :: path)) (successors i);
        marks.(i) <- Black
  in
  try
    for i = 0 to n - 1 do
      visit [] i
    done;
    Ok ()
  with Cycle c -> Error c

let reaches ~successors ~src ~dst n =
  let seen = Array.make n false in
  let rec go i =
    i = dst
    || if seen.(i) then false
       else begin
         seen.(i) <- true;
         List.exists go (successors i)
       end
  in
  go src
