(* Generator-driven properties inside the Alcotest suites, run by the fuzz
   catalogue's engine ({!Check.Runner}): every case draws from its own
   seeded substream, so a run is deterministic, and a failure is shrunk and
   reported with its seed and case. *)

let seed = 1

(* [test ~count name ~print gen law] is an Alcotest case that checks [law]
   on [count] generated values; [law] is [false] on a violation. *)
let test ~count name ~print gen law =
  Alcotest.test_case name `Quick (fun () ->
      let cell =
        Check.Runner.cell ~name ~print gen (fun x ->
            if law x then Ok () else Error "law does not hold")
      in
      match Check.Runner.run_cell ~seed ~cases:count cell with
      | Check.Runner.Pass _ -> ()
      | outcome -> Alcotest.fail (Check.Runner.report outcome ~name))

let ( let* ) = Check.Gen.bind

let ( and* ) = Check.Gen.pair

let pp_list pp xs = "[" ^ String.concat "; " (List.map pp xs) ^ "]"
