module E = Imtp_tir.Expr
module St = Imtp_tir.Stmt
module An = Imtp_tir.Analysis
module Simp = Imtp_tir.Simplify
module Sub = Imtp_tir.Subst

(* Largest divisor d of [n] with d <= cap. *)
let largest_divisor n cap =
  let best = ref 1 in
  let d = ref 1 in
  while !d * !d <= n do
    if n mod !d = 0 then begin
      if !d <= cap && !d > !best then best := !d;
      let q = n / !d in
      if q <= cap && q > !best then best := q
    end;
    incr d
  done;
  !best

let rewrite ~max_dma_bytes ~elem_size stmt =
  let strip (s : St.t) : St.t =
    match s with
    (* Drop a boundary check whose body is pure data movement. *)
    | If { cond = _; then_ = Dma _ as d; else_ = None } -> d
    (* Vectorize: a loop whose body is one DMA with unit-progression
       offsets becomes a single (or strip-mined) static-size DMA. *)
    | For { var; extent; kind = Serial | Unrolled; body = Dma r } -> (
        match (Simp.const_int extent, Simp.const_int r.elems) with
        | Some ext, Some e when ext > 1 -> (
            match (An.stride_in var r.wram_off, An.stride_in var r.mram_off) with
            | Some sw, Some sm when sw = e && sm = e ->
                let esize = elem_size r.wram in
                let total = ext * e in
                let at0 off = Simp.expr (Sub.expr var (E.int 0) off) in
                if total * esize <= max_dma_bytes then
                  St.Dma
                    {
                      r with
                      wram_off = at0 r.wram_off;
                      mram_off = at0 r.mram_off;
                      elems = E.int total;
                    }
                else begin
                  (* strip-vectorize to the largest legal chunk. *)
                  let cap = max 1 (max_dma_bytes / (esize * e)) in
                  let d = largest_divisor ext cap in
                  if d <= 1 then s
                  else begin
                    let v' = Imtp_tir.Var.fresh (Imtp_tir.Var.name var ^ "v") in
                    let shift off =
                      Simp.expr
                        (Sub.expr var (E.Binop (E.Mul, E.var v', E.int d)) off)
                    in
                    St.For
                      {
                        var = v';
                        extent = E.int (ext / d);
                        kind = St.Serial;
                        body =
                          St.Dma
                            {
                              r with
                              wram_off = shift r.wram_off;
                              mram_off = shift r.mram_off;
                              elems = E.int (d * e);
                            };
                      }
                  end
                end
            | _, _ -> s)
        | _, _ -> s)
    | s -> s
  in
  (* Iterate to a fixpoint: vectorizing the innermost loop exposes the
     next level for coalescing.  [strip] returns its argument unless it
     rewrites it, and [rewrite_bottom_up] reuses unchanged nodes, so a
     pass that changes nothing hands back its input itself. *)
  let rec fix n s =
    let s' = St.rewrite_bottom_up strip s in
    if n = 0 || s' == s then s' else fix (n - 1) s'
  in
  fix 8 stmt

let run (cfg : Imtp_upmem.Config.t) (p : Imtp_tir.Program.t) =
  let sizes = Hashtbl.create 16 in
  List.iter
    (fun (k : Imtp_tir.Program.kernel) ->
      St.iter
        (function
          | St.Alloc { buffer; _ } ->
              Hashtbl.replace sizes buffer.Imtp_tir.Buffer.name
                (Imtp_tensor.Dtype.size_in_bytes buffer.Imtp_tir.Buffer.dtype)
          | St.Seq _ | St.For _ | St.If _ | St.Store _ | St.Dma _ | St.Xfer _
          | St.Launch _ | St.Barrier | St.Nop ->
              ())
        k.body)
    p.kernels;
  let elem_size name = Option.value (Hashtbl.find_opt sizes name) ~default:4 in
  let kernels =
    List.map
      (fun (k : Imtp_tir.Program.kernel) ->
        {
          k with
          Imtp_tir.Program.body =
            rewrite ~max_dma_bytes:cfg.Imtp_upmem.Config.dma_max_bytes
              ~elem_size k.body;
        })
      p.kernels
  in
  { p with kernels }
