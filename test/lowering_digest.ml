(* Lowering digest: one line per operator of the benchmark suites, each
   holding the number of tilings lowered and an MD5 over every lowered
   program's text plus the modeled latency of its pass-optimized form.
   The tilings are every [stride]-th distinct canonical tiling of the
   op's sketch space, in enumeration order.  The output is diffed
   against [golden_lowering.txt] by [dune runtest]: a change to the
   lowering that alters any program, or any latency, shows as a changed
   line.  Deliberate changes are recorded with [dune promote]. *)

module Lowering = Imtp.Lowering

let cfg = Imtp.default_config
let stride = 2

let no_bulk = { Lowering.default_options with Lowering.bulk_transfer = false }

let serial_xfer =
  { Lowering.default_options with Lowering.parallel_transfer = false }

let resident = { Lowering.default_options with Lowering.skip_input_transfer = [ "A" ] }

(* mtv with a fused bias-add + ReLU epilogue, as graph fusion builds it. *)
let biased_mtv n k =
  let open Imtp.Op in
  let sp aname extent = { aname; extent; kind = Spatial } in
  let rd aname extent = { aname; extent; kind = Reduction } in
  let op =
    create ~name:"mtv_bias_relu" ~dtype:Imtp.Dtype.I32
      ~axes:[ sp "i" n; rd "j" k ]
      ~inputs:[ ("A", [ "i"; "j" ]); ("B", [ "j" ]); ("D", [ "i" ]) ]
      ~output:("C", [ "i" ])
      ~body:(Bin (Mul, Ref "A", Ref "B"))
  in
  with_epilogue op
    (Bin (Max, Bin (Add, Acc, Ref "D"), Const (Imtp.Value.Int 0)))

let paper_ops =
  let open Imtp.Ops in
  let o = Lowering.default_options in
  [
    ("VA(a)", va (1 lsl 18), o);
    ("VA(b)", va (1 lsl 24), o);
    ("RED(a)", red (1 lsl 18), o);
    ("RED(b)", red (1 lsl 24), o);
    ("MTV(a)", mtv 512 512, o);
    ("MTV(b)", mtv 8192 8192, o);
    ("TTV(a)", ttv 32 64 128, o);
    ("TTV(b)", ttv 128 256 512, o);
    ("MMTV(a)", mmtv 16 64 256, o);
    ("MMTV(b)", mmtv 64 512 256, o);
    ("GEVA(a)", geva ~c:3 ~d:2 (1 lsl 18), o);
    ("GEVA(b)", geva ~c:3 ~d:2 (1 lsl 24), o);
    ("GEMV(a)", gemv ~c:3 512 512, o);
    ("GEMV(b)", gemv ~c:3 8192 8192, o);
    ("MTV 2048x1000", mtv 2048 1000, o);
    ("MTV 2001x1024", mtv 2001 1024, o);
    ("MTV 1999x1999", mtv 1999 1999, o);
    ("VA 2^22+3", va ((1 lsl 22) + 3), o);
    ("GEMV 500x500", gemv ~c:3 500 500, o);
    ("MMTV 8x60x60", mmtv 8 60 60, o);
  ]

let gptj_gated =
  let module G = Imtp.Gptj in
  let fc model =
    List.map
      (fun kind ->
        ( Printf.sprintf "%s %s" (G.model_name model) (G.fc_kind_name kind),
          G.fc_op model kind,
          resident ))
      G.fc_kinds
  in
  let mmtv =
    List.concat_map
      (fun batch ->
        List.map
          (fun tokens ->
            ( Printf.sprintf "GPT-J 6B MMTV b=%d T=%d" batch tokens,
              G.mmtv_op G.Gptj_6b ~batch ~tokens,
              Lowering.default_options ))
          G.token_sizes)
      G.batches
  in
  fc G.Gptj_6b @ fc G.Gptj_30b @ mmtv

let extra =
  [
    ("mtv_bias_relu 37x43", biased_mtv 37 43, Lowering.default_options);
    ("mtv_bias_relu 64x256", biased_mtv 64 256, Lowering.default_options);
    ("MTV 2001x1024 no-bulk", Imtp.Ops.mtv 2001 1024, no_bulk);
    ("MMTV 8x60x60 serial-xfer", Imtp.Ops.mmtv 8 60 60, serial_xfer);
  ]

(* Every [stride]-th distinct canonical tiling of [op]'s space. *)
let sample op =
  let canonical = Imtp.Sketch.canonical op in
  let seen = Hashtbl.create 1024 in
  let distinct =
    List.filter
      (fun p ->
        let c = canonical p in
        if Hashtbl.mem seen c then false
        else begin
          Hashtbl.add seen c ();
          true
        end)
      (Imtp.Sketch.space cfg op)
  in
  List.filteri (fun i _ -> i mod stride = 0) distinct

let digest (label, op, options) =
  let buf = Buffer.create 65536 in
  let tilings = sample op in
  List.iter
    (fun p ->
      match Lowering.lower ~options (Imtp.Sketch.instantiate op p) with
      | exception Lowering.Lower_error m -> Printf.bprintf buf "error %s\n" m
      | prog ->
          Buffer.add_string buf (Imtp.Printer.program_to_string prog);
          let passed = Imtp.Passes.run cfg prog in
          (match Imtp.Cost.measure cfg passed with
          | stats -> Printf.bprintf buf "%h\n" (Imtp.Stats.total_s stats)
          | exception Imtp.Cost.Error m -> Printf.bprintf buf "cost %s\n" m))
    tilings;
  Printf.printf "%s: %d %s\n" label (List.length tilings)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () = List.iter digest (paper_ops @ gptj_gated @ extra)
