module U = Imtp_upmem
module P = Imtp_tir.Program
module St = Imtp_tir.Stmt
module B = Imtp_tir.Buffer
module S = Imtp_schedule.Sched

type rejection = { reason : string; constraint_name : string }

let reject constraint_name fmt =
  Printf.ksprintf (fun reason -> Error { reason; constraint_name }) fmt

let check_sched (cfg : U.Config.t) sched =
  let dpus = S.grid_dpus sched and tasklets = S.tasklets sched in
  if dpus > U.Config.nr_dpus cfg then
    reject "dpus" "grid needs %d DPUs, system has %d" dpus (U.Config.nr_dpus cfg)
  else if tasklets > cfg.U.Config.max_tasklets then
    reject "tasklets" "%d tasklets exceed the %d hardware threads" tasklets
      cfg.U.Config.max_tasklets
  else if tasklets < 1 then reject "tasklets" "at least one tasklet required"
  else Ok ()

let kernel_wram_bytes (k : P.kernel) =
  (* Allocations nested under the tasklet loop are per-tasklet; count
     each allocation once per enclosing-tasklet instance. *)
  let total = ref 0 in
  let rec walk (s : St.t) =
    match s with
    | St.Seq ss -> List.iter walk ss
    | St.For { kind = St.Bound St.Thread_x; extent; body; _ } ->
        let t =
          Option.value (Imtp_tir.Simplify.const_int extent) ~default:1
        in
        let saved = !total in
        total := 0;
        walk body;
        total := saved + (t * !total)
    | St.For { body; _ } -> walk body
    | St.If { then_; else_; _ } ->
        walk then_;
        Option.iter walk else_
    | St.Alloc { buffer; body } ->
        total := !total + B.bytes buffer;
        walk body
    | St.Store _ | St.Dma _ | St.Xfer _ | St.Launch _ | St.Barrier | St.Nop ->
        ()
  in
  walk k.body;
  !total

let check (cfg : U.Config.t) (p : P.t) =
  let ( let* ) = Result.bind in
  let* () =
    let dpus = P.dpus_used p in
    if dpus > U.Config.nr_dpus cfg then
      reject "dpus" "grid needs %d DPUs, system has %d" dpus
        (U.Config.nr_dpus cfg)
    else Ok ()
  in
  let* () =
    let t = P.tasklets_used p in
    if t > cfg.U.Config.max_tasklets then
      reject "tasklets" "%d tasklets exceed the %d hardware threads" t
        cfg.U.Config.max_tasklets
    else Ok ()
  in
  let* () =
    let mram_bytes =
      List.fold_left (fun acc b -> acc + B.bytes b) 0 p.P.mram_buffers
    in
    if mram_bytes > cfg.U.Config.mram_bytes then
      reject "mram" "per-DPU tiles need %d bytes of MRAM, bank holds %d"
        mram_bytes cfg.U.Config.mram_bytes
    else Ok ()
  in
  List.fold_left
    (fun acc (k : P.kernel) ->
      let* () = acc in
      let* () =
        let w = kernel_wram_bytes k in
        if w > cfg.U.Config.wram_bytes then
          reject "wram" "kernel %s needs %d bytes of WRAM, DPU has %d" k.kname
            w cfg.U.Config.wram_bytes
        else Ok ()
      in
      let* () =
        let i = P.iram_footprint_bytes k in
        if i > cfg.U.Config.iram_bytes then
          reject "iram" "kernel %s needs ~%d bytes of IRAM, DPU has %d"
            k.kname i cfg.U.Config.iram_bytes
        else Ok ()
      in
      (* DMA sizes must be legal after vectorization. *)
      let esizes = Hashtbl.create 8 in
      St.iter
        (function
          | St.Alloc { buffer; _ } ->
              Hashtbl.replace esizes buffer.B.name
                (Imtp_tensor.Dtype.size_in_bytes buffer.B.dtype)
          | St.Seq _ | St.For _ | St.If _ | St.Store _ | St.Dma _ | St.Xfer _
          | St.Launch _ | St.Barrier | St.Nop ->
              ())
        k.body;
      (* A DMA size that does not fold to a constant cannot be checked
         against the limit, so it is rejected too. *)
      let bad = ref None in
      St.iter
        (function
          | St.Dma { wram; elems; _ } when Option.is_none !bad -> (
              let esize =
                Option.value (Hashtbl.find_opt esizes wram) ~default:4
              in
              match Imtp_tir.Simplify.const_int elems with
              | Some n when n * esize <= cfg.U.Config.dma_max_bytes -> ()
              | Some n ->
                  bad :=
                    Some
                      (Printf.sprintf "a %d-byte DMA (max %d)" (n * esize)
                         cfg.U.Config.dma_max_bytes)
              | None ->
                  bad :=
                    Some
                      (Printf.sprintf "a DMA of non-constant size %s"
                         (Imtp_tir.Expr.to_string elems)))
          | St.Seq _ | St.For _ | St.If _ | St.Alloc _ | St.Store _
          | St.Dma _ | St.Xfer _ | St.Launch _ | St.Barrier | St.Nop ->
              ())
        k.body;
      match !bad with
      | Some what -> reject "dma" "kernel %s issues %s" k.kname what
      | None -> Ok ())
    (Ok ()) p.P.kernels
