module St = Imtp_tir.Stmt
module An = Imtp_tir.Analysis

let is_dma = function St.Dma _ -> true | _ -> false

let step (s : St.t) : St.t =
  match s with
  (* R1 — unswitching: hoist a loop-invariant check out of the loop. *)
  | For
      {
        var;
        extent;
        kind = (St.Serial | St.Unrolled) as kind;
        body = If { cond; then_; else_ = None };
      }
    when An.is_free_of var cond && not (An.contains_load cond) ->
      St.if_ cond (St.For { var; extent; kind; body = then_ })
  (* R2 — PDE: sink sibling DMA transfers under the single boundary
     check consuming their data. *)
  | Seq stmts
    when List.exists
           (function St.If { else_ = None; _ } -> true | _ -> false)
           stmts ->
      let ifs, others =
        List.partition
          (function St.If { else_ = None; _ } -> true | _ -> false)
          stmts
      in
      (match (ifs, List.for_all is_dma others) with
      | [ If { cond; then_; else_ = None } ], true
        when not (An.contains_load cond) ->
          (* preserve original ordering: DMAs before the check stay
             before the computation, those after stay after. *)
          let rec split before = function
            | [] -> (List.rev before, [])
            | (St.If _ as _i) :: rest -> (List.rev before, rest)
            | x :: rest -> split (x :: before) rest
          in
          let before, after = split [] stmts in
          St.if_ cond (St.seq (before @ [ then_ ] @ after))
      | _, _ -> s)
  (* R3 — allocations do not bind condition variables: hoist above. *)
  | Alloc { buffer; body = If { cond; then_; else_ = None } }
    when not (An.contains_load cond) ->
      St.if_ cond (St.Alloc { buffer; body = then_ })
  | s -> s

(* [step] returns its argument unless it rewrites it into a different
   tree, and [rewrite_bottom_up] reuses unchanged nodes, so a pass that
   changes nothing hands back its input itself. *)
let rewrite stmt =
  let rec fix n s =
    let s' = St.rewrite_bottom_up step s in
    if n = 0 || s' == s then s' else fix (n - 1) s'
  in
  fix 12 stmt

let run (p : Imtp_tir.Program.t) =
  {
    p with
    kernels =
      List.map
        (fun (k : Imtp_tir.Program.kernel) ->
          { k with Imtp_tir.Program.body = rewrite k.body })
        p.kernels;
  }

