(* CI smoke for the island-model search, part of `dune build @check`:
   a 2-island tune must produce the same history digest at -j 1, -j 2
   and -j 4 (jobs never change the trajectory at a fixed island count),
   and a run killed at a mid-run boundary checkpoint then resumed must
   land on the uninterrupted run's digest bit-for-bit.  Both ungated
   and under the measurement gate (ratio 0.2), on an even 128-trial
   split killed at boundary 1 and on an uneven 161-trial split (81/80
   trials) killed at boundary 2, where island 1 finishes one boundary
   before island 0. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let smoke ~name ?measure_ratio ~seed ~trials ~kill_at () =
  let cfg = Imtp.default_config in
  let op = Imtp.Ops.mtv 128 256 in
  let run ?jobs ?resume ?on_checkpoint ?stop () =
    Imtp.Search.run ~seed ?jobs ~islands:2 ?measure_ratio
      ?resume ?on_checkpoint ?stop cfg op ~trials
  in
  let digest = Imtp.Protocol.history_digest in
  let full_j2 = run ~jobs:2 () in
  List.iter
    (fun jobs ->
      if digest (run ~jobs ()) <> digest full_j2 then
        fail "island smoke (%s): -j%d and -j2 digests differ at islands=2"
          name jobs)
    [ 1; 4 ];
  (* The boundary-0 checkpoint is the first, so boundary [kill_at]
     emits checkpoint [kill_at + 1] and [stop] ends the run there. *)
  let n_ck = ref 0 and last = ref None in
  let killed =
    run ~jobs:2
      ~on_checkpoint:(fun ck ->
        incr n_ck;
        last := Some ck)
      ~stop:(fun () -> !n_ck > kill_at)
      ()
  in
  if not killed.Imtp.Search.interrupted then
    fail "island smoke (%s): stop callback did not interrupt the run" name;
  let ck =
    match !last with
    | Some ck -> ck
    | None -> fail "island smoke (%s): no checkpoint" name
  in
  let at = Imtp.Search.checkpoint_trial ck in
  if at <= 0 || at >= trials then
    fail "island smoke (%s): checkpoint at trial %d is not mid-run" name at;
  if Imtp.Search.checkpoint_islands ck <> 2 then
    fail "island smoke (%s): checkpoint lost the island count" name;
  let resumed = run ~jobs:2 ~resume:ck () in
  if resumed.Imtp.Search.interrupted then
    fail "island smoke (%s): resumed run did not complete" name;
  if digest resumed <> digest full_j2 then
    fail "island smoke (%s): resumed digest differs from the uninterrupted run"
      name;
  Printf.printf
    "island smoke ok (%s): islands=2, %d trials, killed at trial %d, resumed \
     digest %s\n"
    name trials at (digest resumed)

let () =
  smoke ~name:"ungated" ~seed:23 ~trials:128 ~kill_at:1 ();
  smoke ~name:"gated" ~measure_ratio:0.2 ~seed:23 ~trials:128 ~kill_at:1 ();
  smoke ~name:"ungated, uneven" ~seed:23 ~trials:161 ~kill_at:2 ();
  smoke ~name:"gated, uneven" ~measure_ratio:0.2 ~seed:23 ~trials:161
    ~kill_at:2 ()
