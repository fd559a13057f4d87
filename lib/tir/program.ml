type kernel = { kname : string; body : Stmt.t }

type t = {
  name : string;
  host_buffers : Buffer.t list;
  mram_buffers : Buffer.t list;
  kernels : kernel list;
  host : Stmt.t;
}

let buffer_of t name =
  let find = List.find_opt (fun (b : Buffer.t) -> String.equal b.name name) in
  match find t.host_buffers with
  | Some b -> Some b
  | None -> find t.mram_buffers

let kernel_of t name =
  List.find_opt (fun k -> String.equal k.kname name) t.kernels

let grid k =
  let dpus = ref 1 and tasklets = ref 1 in
  Stmt.iter
    (function
      | Stmt.For { extent; kind = Stmt.Bound b; _ } -> (
          let e =
            match Simplify.const_int extent with
            | Some n -> n
            | None -> invalid_arg "Program.grid: non-constant bound extent"
          in
          match b with
          | Stmt.Block_x | Stmt.Block_y | Stmt.Block_z -> dpus := !dpus * e
          | Stmt.Thread_x -> tasklets := !tasklets * e)
      | Stmt.Seq _ | Stmt.For _ | Stmt.If _ | Stmt.Store _ | Stmt.Alloc _
      | Stmt.Dma _ | Stmt.Xfer _ | Stmt.Launch _ | Stmt.Barrier | Stmt.Nop ->
          ())
    k.body;
  (!dpus, !tasklets)

let dpus_used t =
  List.fold_left (fun acc k -> max acc (fst (grid k))) 1 t.kernels

let tasklets_used t =
  List.fold_left (fun acc k -> max acc (snd (grid k))) 1 t.kernels

(* Static code-size estimate in instructions. *)
let rec static_instrs (s : Stmt.t) : float =
  match s with
  | Seq ss -> List.fold_left (fun a s -> a +. static_instrs s) 0. ss
  | For { kind = Unrolled; extent; body; _ } ->
      let n = Option.value (Simplify.const_int extent) ~default:8 in
      float_of_int n *. static_instrs body
  | For { body; _ } -> 4. +. static_instrs body
  | If { then_; else_; _ } ->
      3. +. static_instrs then_
      +. (match else_ with None -> 0. | Some e -> static_instrs e)
  | Store _ -> 3.
  | Alloc { body; _ } -> 2. +. static_instrs body
  | Dma _ -> 4.
  | Xfer _ -> 6.
  | Launch _ -> 4.
  | Barrier -> 2.
  | Nop -> 0.

let iram_footprint_bytes k =
  Imtp_upmem.Timing.estimate_iram_bytes ~instructions:(64. +. static_instrs k.body)

let validate t =
  let ( let* ) = Result.bind in
  (* A program holds a handful of buffers: scanning the names before
     each one is cheaper than hashing them. *)
  let rec unique seen = function
    | [] -> Ok ()
    | (b : Buffer.t) :: rest ->
        if List.exists (String.equal b.name) seen then
          Error (Printf.sprintf "duplicate buffer name %s" b.name)
        else unique (b.name :: seen) rest
  in
  let* () = unique [] (t.host_buffers @ t.mram_buffers) in
  let* () =
    (* Host statement restrictions. *)
    let bad = ref None in
    Stmt.iter
      (function
        | Stmt.Dma _ -> bad := Some "Dma in host code"
        | Stmt.Barrier -> bad := Some "Barrier in host code"
        | Stmt.For { kind = Stmt.Bound _; _ } -> bad := Some "bound loop in host code"
        | Stmt.Launch l ->
            if kernel_of t l = None then
              bad := Some (Printf.sprintf "launch of unknown kernel %s" l)
        | Stmt.Seq _ | Stmt.For _ | Stmt.If _ | Stmt.Store _ | Stmt.Alloc _
        | Stmt.Xfer _ | Stmt.Nop ->
            ())
      t.host;
    match !bad with None -> Ok () | Some m -> Error m
  in
  List.fold_left
    (fun acc k ->
      let* () = acc in
      let bad = ref None in
      Stmt.iter
        (function
          | Stmt.Xfer _ -> bad := Some "Xfer in kernel code"
          | Stmt.Launch _ -> bad := Some "Launch in kernel code"
          | Stmt.For { kind = Stmt.Host_parallel _; _ } ->
              bad := Some "host-parallel loop in kernel code"
          | Stmt.Seq _ | Stmt.For _ | Stmt.If _ | Stmt.Store _ | Stmt.Alloc _
          | Stmt.Dma _ | Stmt.Barrier | Stmt.Nop ->
              ())
        k.body;
      match !bad with
      | None -> Ok ()
      | Some m -> Error (Printf.sprintf "kernel %s: %s" k.kname m))
    (Ok ()) t.kernels
