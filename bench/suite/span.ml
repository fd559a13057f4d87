(* The benchmark's own spans, opened around each public call it makes.

   They are recorded in memory only while a traced run enables them,
   and mirrored into [Imtp.Obs] so a trace file holds them next to the
   program's spans.  Per-layer self time comes from these spans alone:
   the program's spans cannot be used for it while island systhreads
   share one Obs span stack, which misparents them when islands > 1. *)

type t = {
  id : int;
  parent : int option;
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let next_id = ref 0
let finished : t list ref = ref []

(* Open spans per systhread: the serve workload's client threads each
   nest their own spans. *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let run ?(attrs = []) name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      Mutex.protect lock (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
          Hashtbl.replace stacks tid (id :: stack);
          (id, match stack with p :: _ -> Some p | [] -> None))
    in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        Mutex.protect lock (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | Some [] | None -> ());
            finished := { id; parent; name; t0; t1 } :: !finished))
      (fun () -> Imtp.Obs.span ~attrs ~name f)
  end

(* Total self time per span name.  A span's self time is its duration
   minus the union of its children's intervals (clipped to its own), so
   overlapping children are not subtracted twice. *)
let self_times () =
  let spans = Mutex.protect lock (fun () -> !finished) in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.t0, s.t1)
      | None -> ())
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let intervals =
        List.sort compare
          (List.map
             (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
             (Hashtbl.find_all children s.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, Float.max hi b))
          (0., neg_infinity) intervals
      in
      let total = Option.value (Hashtbl.find_opt totals s.name) ~default:0. in
      Hashtbl.replace totals s.name (total +. (s.t1 -. s.t0 -. covered)))
    spans;
  totals

let self_s totals name = Option.value (Hashtbl.find_opt totals name) ~default:0.
