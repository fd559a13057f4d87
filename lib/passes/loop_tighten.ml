module E = Imtp_tir.Expr
module St = Imtp_tir.Stmt
module An = Imtp_tir.Analysis
module Simp = Imtp_tir.Simplify

let rewrite stmt =
  St.rewrite_bottom_up
    (function
      | St.For
          {
            var;
            extent;
            kind = (St.Serial | St.Unrolled) as kind;
            body = St.If { cond; then_; else_ = None };
          } as orig -> (
          let atoms = An.conjuncts cond in
          let bounds, rest =
            List.partition_map
              (fun atom ->
                match An.upper_bound_from_cond var atom with
                | Some b -> Left b
                | None -> Right atom)
              atoms
          in
          match bounds with
          | [] -> orig
          | bs ->
              let extent' =
                Simp.expr (List.fold_left (fun acc b -> E.min_e acc b) extent bs)
              in
              let body' =
                match rest with
                | [] -> then_
                | cs -> St.if_ (An.conjoin cs) then_
              in
              St.For { var; extent = extent'; kind; body = body' })
      | s -> s)
    stmt

let run (p : Imtp_tir.Program.t) =
  {
    p with
    kernels =
      List.map
        (fun (k : Imtp_tir.Program.kernel) ->
          { k with Imtp_tir.Program.body = rewrite k.body })
        p.kernels;
  }

