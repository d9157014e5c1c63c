type opts = { workload : Workloads.t; seed : int; seconds : float; trace : bool }

type mode = Measure of opts | Pin

let usage =
  "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \       bench.exe --pin\n\
   workloads: " ^ String.concat ", " Workloads.names

let ( let* ) = Result.bind

let parse args =
  let rec go acc = function
    | [] -> Ok acc
    | [ "--pin" ] when acc = [] -> Ok [ ("--pin", "") ]
    | flag :: value :: rest
      when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
        go ((flag, value) :: acc) rest
    | arg :: _ -> Error (Printf.sprintf "unexpected argument %S\n%s" arg usage)
  in
  let* flags = go [] args in
  let get flag conv =
    match List.assoc_opt flag flags with
    | None -> Error (Printf.sprintf "missing %s\n%s" flag usage)
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "bad value %S for %s\n%s" v flag usage))
  in
  if List.mem_assoc "--pin" flags then Ok Pin
  else
    let* name = get "--workload" Option.some in
    let* workload = Workloads.find name in
    let* seed = get "--seed" int_of_string_opt in
    let* seconds =
      get "--seconds" (fun s ->
          Option.bind (float_of_string_opt s) (fun f -> if f >= 0.0 then Some f else None))
    in
    let* trace =
      get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
    in
    Ok (Measure { workload; seed; seconds; trace })
