(* Observability tests: span nesting and ordering, histogram bucket
   boundaries, JSONL round-trips, the folded-stack report, and the
   property that instrumenting the engine leaves its results
   bit-identical. *)

module Obs = Imtp_obs.Obs
module E = Imtp_engine.Engine
module Sk = Imtp_engine.Sketch
module Ops = Imtp_workload.Ops

let cfg = Imtp_upmem.Config.default

let spans_of events =
  List.filter_map (function Obs.Span s -> Some s | _ -> None) events

(* [f ()] under a trace file, and the events read back from it: the
   spans [f] finished, then the closing metric readings. *)
let traced f =
  let file = Filename.temp_file "imtp_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let r = Obs.with_sink (Some file) f in
      match Obs.load_jsonl file with
      | Ok events -> (r, events)
      | Error m -> Alcotest.failf "load_jsonl failed: %s" m)

(* --- spans --------------------------------------------------------- *)

let test_span_nesting () =
  Obs.reset ();
  let r, events =
    traced @@ fun () ->
    Obs.span ~name:"outer" @@ fun () ->
    Obs.span ~name:"inner" (fun () -> 6) * 7
  in
  Alcotest.(check int) "span returns f ()" 42 r;
  match spans_of events with
  | [ inner; outer ] ->
      (* children finish (and are recorded) before their parent *)
      Alcotest.(check string) "child recorded first" "inner" inner.Obs.name;
      Alcotest.(check string) "parent recorded second" "outer" outer.Obs.name;
      Alcotest.(check (option int))
        "child parented to outer" (Some outer.Obs.id) inner.Obs.parent;
      Alcotest.(check (option int)) "outer is a root" None outer.Obs.parent;
      Alcotest.(check bool) "ids in start order" true
        (outer.Obs.id < inner.Obs.id);
      Alcotest.(check bool) "child starts after parent" true
        (inner.Obs.start_s >= outer.Obs.start_s);
      Alcotest.(check bool) "child fits inside parent" true
        (inner.Obs.dur_s <= outer.Obs.dur_s)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_records_on_raise () =
  Obs.reset ();
  let (), events =
    traced (fun () ->
        try Obs.span ~name:"doomed" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  match spans_of events with
  | [ s ] -> Alcotest.(check string) "span survives the raise" "doomed" s.Obs.name
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_attrs () =
  Obs.reset ();
  Obs.add_attr "ignored" (Obs.Int 1);
  (* no-op outside a span *)
  let (), events =
    traced (fun () ->
        Obs.span ~attrs:[ ("op", Obs.Str "mtv") ] ~name:"s" (fun () ->
            Obs.add_attr "hit" (Obs.Bool true)))
  in
  match spans_of events with
  | [ s ] ->
      Alcotest.(check int) "two attrs" 2 (List.length s.Obs.attrs);
      Alcotest.(check bool) "static attr present" true
        (List.mem_assoc "op" s.Obs.attrs);
      Alcotest.(check bool) "mid-flight attr present" true
        (List.mem_assoc "hit" s.Obs.attrs)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* [Engine.prepare] builds its span's attributes only while a sink is
   open; under one, a cold and a warm request still carry all four. *)
let test_prepare_attrs () =
  Obs.reset ();
  Alcotest.(check bool) "no sink" false (Obs.sink_open ());
  let e = E.create cfg in
  let op = Ops.mtv 64 128 in
  let params = List.hd (Sk.space cfg op) in
  let (), events =
    traced (fun () ->
        Alcotest.(check bool) "sink open" true (Obs.sink_open ());
        ignore (E.prepare e op params);
        ignore (E.prepare e op params))
  in
  let prepares =
    List.filter (fun s -> String.equal s.Obs.name "engine.prepare") (spans_of events)
  in
  Alcotest.(check (list (list string)))
    "attributes, cold then warm"
    [ [ "op"; "hit"; "shared"; "ok" ]; [ "op"; "hit"; "shared"; "ok" ] ]
    (List.map (fun s -> List.map fst s.Obs.attrs) prepares);
  Alcotest.(check (list bool))
    "hit" [ false; true ]
    (List.map (fun s -> List.assoc "hit" s.Obs.attrs = Obs.Bool true) prepares)

(* --- metrics ------------------------------------------------------- *)

let test_counters_and_gauges () =
  Obs.reset ();
  Alcotest.(check int) "unknown counter reads 0" 0 (Obs.counter_value "c");
  Obs.incr "c";
  Obs.incr ~by:41 "c";
  Alcotest.(check int) "counter accumulates" 42 (Obs.counter_value "c");
  Alcotest.(check (option (float 0.))) "unknown gauge" None (Obs.gauge_value "g");
  Obs.set_gauge "g" 1.5;
  Obs.set_gauge "g" 2.5;
  Alcotest.(check (option (float 0.))) "gauge last-value-wins" (Some 2.5)
    (Obs.gauge_value "g")

let test_bucket_boundaries () =
  Alcotest.(check int) "bucket count" 61 Obs.bucket_count;
  (* upper bounds are strictly increasing and end at infinity *)
  for i = 1 to Obs.bucket_count - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "bound %d > bound %d" i (i - 1))
      true
      (Obs.bucket_upper_bound i > Obs.bucket_upper_bound (i - 1))
  done;
  Alcotest.(check bool) "overflow bucket is infinite" true
    (Obs.bucket_upper_bound (Obs.bucket_count - 1) = infinity);
  (* an exact upper bound lands in its own bucket (inclusive), and a
     value just above it lands in the next one *)
  for i = 0 to Obs.bucket_count - 2 do
    let ub = Obs.bucket_upper_bound i in
    Alcotest.(check int)
      (Printf.sprintf "ub of bucket %d is inclusive" i)
      i (Obs.bucket_index ub);
    Alcotest.(check int)
      (Printf.sprintf "just above ub of bucket %d" i)
      (i + 1)
      (Obs.bucket_index (ub *. (1. +. 1e-12)))
  done;
  Alcotest.(check int) "zero goes to bucket 0" 0 (Obs.bucket_index 0.);
  Alcotest.(check int) "negative goes to bucket 0" 0 (Obs.bucket_index (-5.));
  Alcotest.(check int) "huge goes to overflow" (Obs.bucket_count - 1)
    (Obs.bucket_index 1e9)

(* The bounds are precomputed once; the oracle is the expression the
   bounds were evaluated with on every call before, and the bucket walk
   that read them.  Both must agree bit for bit with the table, on the
   bounds themselves and on their neighbouring floats. *)
let test_bucket_table () =
  let expr i = 10. ** (-9. +. (float_of_int (i + 1) /. 5.)) in
  let old_bound i = if i >= 60 then infinity else expr i in
  let old_index v =
    if Float.is_nan v || v <= old_bound 0 then 0
    else if v > old_bound 59 then 60
    else begin
      let guess = int_of_float (Float.ceil ((Float.log10 v +. 9.) *. 5.)) - 1 in
      let i = ref (max 0 (min 59 guess)) in
      while !i > 0 && v <= old_bound (!i - 1) do
        decr i
      done;
      while v > old_bound !i do
        incr i
      done;
      !i
    end
  in
  for i = -2 to Obs.bucket_count + 1 do
    let got = Obs.bucket_upper_bound i and want = old_bound i in
    if Int64.bits_of_float got <> Int64.bits_of_float want then
      Alcotest.failf "bucket_upper_bound %d = %h, expression gives %h" i got
        want
  done;
  for i = 0 to Obs.bucket_count - 2 do
    let ub = old_bound i in
    List.iter
      (fun v ->
        Alcotest.(check int)
          (Printf.sprintf "bucket of %h (bound %d)" v i)
          (old_index v) (Obs.bucket_index v))
      [ Float.pred ub; ub; Float.succ ub ]
  done;
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "bucket of %h" v) (old_index v)
        (Obs.bucket_index v))
    [ nan; neg_infinity; -0.; 0.; 4.9e-324; 1e-300; infinity; 1e300 ]

let test_histogram () =
  Obs.reset ();
  List.iter (Obs.observe "h") [ 0.001; 0.002; 0.004; 0.1; 2.0 ];
  match
    List.filter_map
      (function Obs.Histogram ("h", h) -> Some h | _ -> None)
      (Obs.metrics ())
  with
  | [ h ] ->
      Alcotest.(check int) "count" 5 h.Obs.count;
      Alcotest.(check (float 1e-9)) "sum" 2.107 h.Obs.sum;
      Alcotest.(check (float 0.)) "vmin" 0.001 h.Obs.vmin;
      Alcotest.(check (float 0.)) "vmax" 2.0 h.Obs.vmax;
      Alcotest.(check int) "bucket counts total the count" 5
        (List.fold_left (fun a (_, c) -> a + c) 0 h.Obs.buckets);
      let q50 = Obs.hist_quantile h 0.5 in
      Alcotest.(check bool) "p50 within data range" true
        (q50 >= h.Obs.vmin && q50 <= h.Obs.vmax);
      Alcotest.(check (float 0.)) "p100 clamps to vmax" 2.0
        (Obs.hist_quantile h 1.0)
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l)

(* --- JSON / JSONL round-trips -------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "a\"b\\c\nd\tñ");
        ("n", Obs.Json.Num 0.1);
        ("big", Obs.Json.Num 1e300);
        ("l", Obs.Json.List [ Obs.Json.Null; Obs.Json.Bool true ]);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok j' ->
      Alcotest.(check bool) "value round-trips" true (j = j');
      Alcotest.(check (option string)) "member lookup" None
        (Option.map Obs.Json.to_string (Obs.Json.member "missing" j'))
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{} trailing" ]

let test_jsonl_roundtrip () =
  Obs.reset ();
  Obs.incr ~by:7 "trips";
  Obs.set_gauge "best" 0.25;
  Obs.observe "lat" 0.003;
  let span id parent name attrs =
    Obs.Span
      { Obs.id; parent; name; start_s = 0.125 *. float_of_int id; dur_s = 1e-3; attrs }
  in
  let events =
    span 1 (Some 0) "b" []
    :: span 0 None "a"
         [ ("op", Obs.Str "va"); ("ok", Obs.Bool true); ("n", Obs.Int 3);
           ("x", Obs.Float 0.1) ]
    :: Obs.metrics ()
  in
  let file = Filename.temp_file "imtp_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc (Obs.to_jsonl events);
      close_out oc;
      match Obs.load_jsonl file with
      | Ok events' ->
          Alcotest.(check bool) "events round-trip through JSONL" true
            (events = events')
      | Error m -> Alcotest.failf "load_jsonl failed: %s" m)

let test_sink_stream () =
  let file = Filename.temp_file "imtp_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Obs.reset ();
      Obs.with_sink (Some file) (fun () ->
          Obs.span ~name:"streamed" (fun () -> Obs.incr "n"));
      match Obs.load_jsonl file with
      | Ok events ->
          Alcotest.(check bool) "sink streamed the span" true
            (List.exists
               (function
                 | Obs.Span s -> s.Obs.name = "streamed" | _ -> false)
               events);
          Alcotest.(check bool) "sink appended final metrics" true
            (List.exists
               (function Obs.Counter ("n", 1) -> true | _ -> false)
               events)
      | Error m -> Alcotest.failf "load_jsonl failed: %s" m)

(* --- folded stacks ------------------------------------------------- *)

let test_folded () =
  Obs.reset ();
  let (), events =
    traced (fun () ->
        Obs.span ~name:"root" (fun () ->
            Obs.span ~name:"leaf" (fun () -> Unix.sleepf 0.002);
            Obs.span ~name:"leaf" (fun () -> Unix.sleepf 0.002)))
  in
  let f = Obs.folded events in
  Alcotest.(check bool) "leaf path present under root" true
    (List.mem_assoc "root;leaf" f);
  Alcotest.(check bool) "both leaf occurrences summed" true
    (List.assoc "root;leaf" f >= 3000);
  (* root's self time excludes its children *)
  (match List.assoc_opt "root" f with
  | Some self ->
      Alcotest.(check bool) "root self < children total" true
        (self < List.assoc "root;leaf" f)
  | None -> ());
  Alcotest.(check bool) "paths sorted" true
    (List.sort compare f = f)

(* --- instrumentation does not change results ----------------------- *)

let prop_engine_bit_identical =
  (* variable identifiers are freshly generated on every lowering, so
     two builds of the same candidate are compared through the printed
     program (which is stable) plus the full stats record. *)
  let print_program p =
    Format.asprintf "%a" Imtp_tir.Printer.pp_program p
  in
  QCheck.Test.make ~count:15 ~name:"traced Engine.build is bit-identical"
    QCheck.(triple (int_range 0 1_000_000) (int_range 8 96) (int_range 8 96))
    (fun (seed, m, n) ->
      (* QCheck shrinks ints toward 0, below int_range's low bound *)
      let m = max 8 m and n = max 8 n in
      let op = Ops.mtv m n in
      let rng = Imtp_engine.Rng.create ~seed in
      let params = Sk.random rng cfg op in
      let build () = E.build (E.create cfg) op params in
      (* plain build, observability reset *)
      Obs.reset ();
      let plain = build () in
      (* instrumented build: active sink, live metrics *)
      let file = Filename.temp_file "imtp_obs" ".jsonl" in
      let traced =
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () -> Obs.with_sink (Some file) build)
      in
      Obs.reset ();
      match (plain, traced) with
      | Ok a, Ok b ->
          print_program a.E.program = print_program b.E.program
          && a.E.stats = b.E.stats
      | Error a, Error b -> a = b
      | _ -> false)

(* --- suite --------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "recorded on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "attributes" `Quick test_attrs;
          Alcotest.test_case "prepare attributes under a sink" `Quick
            test_prepare_attrs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "bucket table" `Quick test_bucket_table;
          Alcotest.test_case "histogram snapshot" `Quick test_histogram;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick
            test_json_rejects_garbage;
          Alcotest.test_case "events round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "sink streams spans" `Quick test_sink_stream;
        ] );
      ( "report",
        [ Alcotest.test_case "folded stacks" `Quick test_folded ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_engine_bit_identical ] );
    ]
