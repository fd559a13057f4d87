type config = { dma_elim : bool; loop_tighten : bool; branch_hoist : bool }

let all_on = { dma_elim = true; loop_tighten = true; branch_hoist = true }
let all_off = { dma_elim = false; loop_tighten = false; branch_hoist = false }

let ablations =
  [
    ("none", all_off);
    ("dma", { all_off with dma_elim = true });
    ("dma+lt", { all_off with dma_elim = true; loop_tighten = true });
    ("dma+lt+bh", all_on);
  ]

let config_name c =
  let parts =
    (if c.dma_elim then [ "dma" ] else [])
    @ (if c.loop_tighten then [ "lt" ] else [])
    @ if c.branch_hoist then [ "bh" ] else []
  in
  match parts with [] -> "none" | ps -> String.concat "+" ps

let all_configs =
  List.concat_map
    (fun dma_elim ->
      List.concat_map
        (fun loop_tighten ->
          List.map
            (fun branch_hoist ->
              let c = { dma_elim; loop_tighten; branch_hoist } in
              (config_name c, c))
            [ false; true ])
        [ false; true ])
    [ false; true ]

let simplify_kernels (p : Imtp_tir.Program.t) =
  {
    p with
    kernels =
      List.map
        (fun (k : Imtp_tir.Program.kernel) ->
          { k with Imtp_tir.Program.body = Imtp_tir.Simplify.stmt k.body })
        p.kernels;
  }

let run ?(config = all_on) cfg p =
  let p = if config.dma_elim then Dma_elim.run cfg p else p in
  let p = if config.loop_tighten then Loop_tighten.run p else p in
  let p = if config.branch_hoist then Branch_hoist.run p else p in
  simplify_kernels p
