type value = Bool of bool | Int of int | Float of float | Str of string

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let num_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f ->
          if Float.is_nan f then Buffer.add_string buf "null"
          else Buffer.add_string buf (num_to_string f)
      | Str s ->
          Buffer.add_char buf '"';
          escape buf s;
          Buffer.add_char buf '"'
      | List xs ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              go x)
            xs;
          Buffer.add_char buf ']'
      | Obj kvs ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              escape buf k;
              Buffer.add_string buf "\":";
              go x)
            kvs;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | None -> fail "unterminated escape"
            | Some c ->
                advance ();
                (match c with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | 'r' -> Buffer.add_char buf '\r'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'u' ->
                    if !pos + 4 > n then fail "truncated \\u escape";
                    let hex = String.sub s !pos 4 in
                    pos := !pos + 4;
                    let cp =
                      match int_of_string_opt ("0x" ^ hex) with
                      | Some cp -> cp
                      | None -> fail "bad \\u escape"
                    in
                    (* encode the code point as UTF-8. *)
                    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                    else if cp < 0x800 then begin
                      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                    end
                    else begin
                      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                      Buffer.add_char buf
                        (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                    end
                | _ -> fail "bad escape");
                go ())
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [ parse_value () ] in
            skip_ws ();
            while peek () = Some ',' do
              advance ();
              items := parse_value () :: !items;
              skip_ws ()
            done;
            expect ']';
            List (List.rev !items)
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let items = ref [ field () ] in
            skip_ws ();
            while peek () = Some ',' do
              advance ();
              items := field () :: !items;
              skip_ws ()
            done;
            expect '}';
            Obj (List.rev !items)
          end
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse m -> Error m

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* [float option] rather than a NaN sentinel: compare-and-set on [None]
   (an immediate) is well-defined, whereas physical equality of boxed
   floats is not. *)
let epoch : float option Atomic.t = Atomic.make None

let now_s () =
  let t = Unix.gettimeofday () in
  if Atomic.get epoch = None then
    ignore (Atomic.compare_and_set epoch None (Some t));
  match Atomic.get epoch with Some e -> t -. e | None -> 0.

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  dur_s : float;
  attrs : (string * value) list;
}

let value_to_json : value -> Json.t = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Str s -> Json.Str s

let span_to_json s =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("id", Json.Num (float_of_int s.id));
      ( "parent",
        match s.parent with
        | None -> Json.Null
        | Some p -> Json.Num (float_of_int p) );
      ("name", Json.Str s.name);
      ("start_s", Json.Num s.start_s);
      ("dur_s", Json.Num s.dur_s);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) s.attrs));
    ]

type open_span = {
  o_id : int;
  o_name : string;
  o_parent : int option;
  o_start : float;
  mutable o_attrs : (string * value) list;  (* reversed *)
}

let next_id = Atomic.make 0

(* Every domain has its own stack of open spans (domain-local storage),
   so span nesting is tracked per domain without synchronization.  A
   worker domain running a task on behalf of an enclosing span (e.g. an
   engine batch dispatching builds across a pool) inherits that span as
   its "ambient parent": the task's outermost spans are parented to it,
   keeping traces from parallel batches well-nested. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let ambient_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let stack () = Domain.DLS.get stack_key
let ambient () = Domain.DLS.get ambient_key

(* One lock guards everything cross-domain: the trace sink and the
   metrics registry.  Sections under the lock are short (no user code,
   no I/O beyond one sink line), so contention stays negligible next to
   the instrumented work. *)
let state_lock = Mutex.create ()
let locked f = Mutex.protect state_lock f

let current_span_id () =
  match !(stack ()) with o :: _ -> Some o.o_id | [] -> !(ambient ())

let with_ambient_parent parent f =
  let r = ambient () in
  let saved = !r in
  r := parent;
  Fun.protect ~finally:(fun () -> r := saved) f

(* The trace sink.  Set and cleared under [state_lock]; read without
   it first, so a span finished while no sink is open takes no lock. *)
let sink : out_channel option Atomic.t = Atomic.make None
let sink_open () = Option.is_some (Atomic.get sink)

(* Writes the span to the sink, if one is open, and returns its
   duration. *)
let finish_span o =
  let dur = now_s () -. o.o_start in
  let stack = stack () in
  (match !stack with
  | top :: rest when top == o -> stack := rest
  | _ ->
      (* a span escaped its dynamic extent (e.g. an exception skipped
         an inner finish); drop down to — and including — [o]. *)
      let rec pop = function
        | top :: rest -> if top == o then rest else pop rest
        | [] -> []
      in
      stack := pop !stack);
  if sink_open () then begin
    let line =
      Json.to_string
        (span_to_json
           {
             id = o.o_id;
             parent = o.o_parent;
             name = o.o_name;
             start_s = o.o_start;
             dur_s = dur;
             attrs = List.rev o.o_attrs;
           })
      ^ "\n"
    in
    locked (fun () -> Option.iter (fun oc -> output_string oc line) (Atomic.get sink))
  end;
  dur

let open_span attrs name =
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = stack () in
  let parent =
    match !stack with o :: _ -> Some o.o_id | [] -> !(ambient ())
  in
  let o =
    {
      o_id = id;
      o_name = name;
      o_parent = parent;
      o_start = now_s ();
      o_attrs = List.rev attrs;
    }
  in
  stack := o :: !stack;
  o

let span_timed ?(attrs = []) ~name f =
  let o = open_span attrs name in
  match f () with
  | v -> (v, finish_span o)
  | exception e ->
      ignore (finish_span o : float);
      raise e

let span ?attrs ~name f = fst (span_timed ?attrs ~name f)

let add_attr k v =
  match !(stack ()) with
  | [] -> ()
  | o :: _ -> o.o_attrs <- (k, v) :: o.o_attrs

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32
let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 16

(* Fixed log-scale buckets: 5 per decade, 1e-9 .. 1e3, plus overflow. *)
let buckets_per_decade = 5
let min_exp = -9.
let finite_buckets = 60
let bucket_count = finite_buckets + 1

let bound_of i =
  10. ** (min_exp +. (float_of_int (i + 1) /. float_of_int buckets_per_decade))

(* Every engine stage observes a histogram, so the finite bounds are
   computed once. *)
let upper_bounds = Array.init finite_buckets bound_of

let bucket_upper_bound i =
  if i >= finite_buckets then infinity
  else if i >= 0 then upper_bounds.(i)
  else bound_of i

let bucket_index v =
  if Float.is_nan v || v <= upper_bounds.(0) then 0
  else if v > upper_bounds.(finite_buckets - 1) then finite_buckets
  else begin
    let guess =
      int_of_float
        (Float.ceil ((Float.log10 v -. min_exp) *. float_of_int buckets_per_decade))
      - 1
    in
    let i = ref (max 0 (min (finite_buckets - 1) guess)) in
    (* fix up floating-point error at bucket boundaries. *)
    while !i > 0 && v <= upper_bounds.(!i - 1) do
      decr i
    done;
    while v > upper_bounds.(!i) do
      incr i
    done;
    !i
  end

type hist_state = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let histograms : (string, hist_state) Hashtbl.t = Hashtbl.create 16

let incr_counter ?(by = 1) name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.add counters name (ref by))

let incr = incr_counter

let counter_value name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with Some r -> !r | None -> 0)

let set_gauge name v =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some r -> r := v
      | None -> Hashtbl.add gauges name (ref v))

let gauge_value name =
  locked (fun () ->
      Option.map (fun r -> !r) (Hashtbl.find_opt gauges name))

let observe name v =
  locked (fun () ->
      let h =
        match Hashtbl.find_opt histograms name with
        | Some h -> h
        | None ->
            let h =
              {
                h_count = 0;
                h_sum = 0.;
                h_min = infinity;
                h_max = neg_infinity;
                h_buckets = Array.make bucket_count 0;
              }
            in
            Hashtbl.add histograms name h;
            h
      in
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let i = bucket_index v in
      h.h_buckets.(i) <- h.h_buckets.(i) + 1)

type hist = {
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
  buckets : (float * int) list;
}

let hist_of_state (h : hist_state) =
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.h_buckets.(i) > 0 then
      buckets := (bucket_upper_bound i, h.h_buckets.(i)) :: !buckets
  done;
  {
    count = h.h_count;
    sum = h.h_sum;
    vmin = h.h_min;
    vmax = h.h_max;
    buckets = !buckets;
  }

let hist_quantile h q =
  if h.count = 0 then Float.nan
  else begin
    let target =
      max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let rec go cum = function
      | [] -> h.vmax
      | (ub, c) :: rest ->
          if cum + c >= target then Float.min ub h.vmax else go (cum + c) rest
    in
    go 0 h.buckets
  end

(* ------------------------------------------------------------------ *)
(* Events and the JSONL format                                         *)
(* ------------------------------------------------------------------ *)

type event =
  | Span of span
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * hist

let value_of_json : Json.t -> (value, string) result = function
  | Json.Bool b -> Ok (Bool b)
  | Json.Num f ->
      if Float.is_integer f && Float.abs f < 9.007199254740992e15 then
        Ok (Int (int_of_float f))
      else Ok (Float f)
  | Json.Str s -> Ok (Str s)
  | _ -> Error "bad attribute value"

let event_to_json = function
  | Span s -> span_to_json s
  | Counter (name, v) ->
      Json.Obj
        [
          ("type", Json.Str "counter");
          ("name", Json.Str name);
          ("value", Json.Num (float_of_int v));
        ]
  | Gauge (name, v) ->
      Json.Obj
        [ ("type", Json.Str "gauge"); ("name", Json.Str name); ("value", Json.Num v) ]
  | Histogram (name, h) ->
      Json.Obj
        [
          ("type", Json.Str "histogram");
          ("name", Json.Str name);
          ("count", Json.Num (float_of_int h.count));
          ("sum", Json.Num h.sum);
          ("min", Json.Num h.vmin);
          ("max", Json.Num h.vmax);
          ( "buckets",
            Json.List
              (List.map
                 (fun (ub, c) ->
                   Json.List [ Json.Num ub; Json.Num (float_of_int c) ])
                 h.buckets) );
        ]

let ( let* ) = Result.bind

let field name j conv =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %s" name)
  | Some v -> conv v

let as_num = function
  | Json.Num f -> Ok f
  | _ -> Error "expected a number"

let as_str = function
  | Json.Str s -> Ok s
  | _ -> Error "expected a string"

let as_int j = Result.map int_of_float (as_num j)

let event_of_json j =
  let* typ = field "type" j as_str in
  match typ with
  | "span" ->
      let* id = field "id" j as_int in
      let* parent =
        match Json.member "parent" j with
        | None | Some Json.Null -> Ok None
        | Some v -> Result.map (fun i -> Some i) (as_int v)
      in
      let* name = field "name" j as_str in
      let* start_s = field "start_s" j as_num in
      let* dur_s = field "dur_s" j as_num in
      let* attrs =
        match Json.member "attrs" j with
        | None | Some (Json.Obj []) -> Ok []
        | Some (Json.Obj kvs) ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                let* v = value_of_json v in
                Ok ((k, v) :: acc))
              (Ok []) kvs
            |> Result.map List.rev
        | Some _ -> Error "bad attrs"
      in
      Ok (Span { id; parent; name; start_s; dur_s; attrs })
  | "counter" ->
      let* name = field "name" j as_str in
      let* v = field "value" j as_int in
      Ok (Counter (name, v))
  | "gauge" ->
      let* name = field "name" j as_str in
      let* v = field "value" j as_num in
      Ok (Gauge (name, v))
  | "histogram" ->
      let* name = field "name" j as_str in
      let* count = field "count" j as_int in
      let* sum = field "sum" j as_num in
      let* vmin = field "min" j as_num in
      let* vmax = field "max" j as_num in
      let* buckets =
        match Json.member "buckets" j with
        | Some (Json.List items) ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match item with
                | Json.List [ ub; c ] ->
                    let* ub = as_num ub in
                    let* c = as_int c in
                    Ok ((ub, c) :: acc)
                | _ -> Error "bad bucket")
              (Ok []) items
            |> Result.map List.rev
        | _ -> Error "missing buckets"
      in
      Ok (Histogram (name, { count; sum; vmin; vmax; buckets }))
  | t -> Error (Printf.sprintf "unknown event type %s" t)

(* Assumes [state_lock] is held (callers: [metrics], [close_sink]). *)
let metric_events_locked () =
  let sorted tbl mk =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map mk
  in
  sorted counters (fun (name, r) -> Counter (name, !r))
  @ sorted gauges (fun (name, r) -> Gauge (name, !r))
  @ sorted histograms (fun (name, h) -> Histogram (name, hist_of_state h))

let metrics () = locked metric_events_locked

let to_jsonl events =
  String.concat ""
    (List.map (fun e -> Json.to_string (event_to_json e) ^ "\n") events)

let load_jsonl path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let events = ref [] and err = ref None and lineno = ref 0 in
          (try
             while true do
               let line = input_line ic in
               lineno := !lineno + 1;
               if String.trim line <> "" && !err = None then
                 match Json.of_string line with
                 | Error m ->
                     err := Some (Printf.sprintf "line %d: %s" !lineno m)
                 | Ok j -> (
                     match event_of_json j with
                     | Error m ->
                         err := Some (Printf.sprintf "line %d: %s" !lineno m)
                     | Ok e -> events := e :: !events)
             done
           with End_of_file -> ());
          match !err with
          | Some m -> Error m
          | None -> Ok (List.rev !events))

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

let close_sink () =
  locked (fun () ->
      match Atomic.get sink with
      | None -> ()
      | Some oc ->
          Atomic.set sink None;
          List.iter
            (fun e -> output_string oc (Json.to_string (event_to_json e) ^ "\n"))
            (metric_events_locked ());
          close_out oc)

let set_sink path =
  close_sink ();
  locked (fun () -> Atomic.set sink (Some (open_out path)))

let with_sink path f =
  match path with
  | None -> f ()
  | Some p ->
      set_sink p;
      Fun.protect ~finally:close_sink f

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let pp_events fmt events =
  let spans =
    List.filter_map (function Span s -> Some s | _ -> None) events
  in
  (* per-name latency table. *)
  let by_name : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_name s.name with
      | Some r -> r := s.dur_s :: !r
      | None -> Hashtbl.add by_name s.name (ref [ s.dur_s ]))
    spans;
  let rows =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if rows <> [] then begin
    Format.fprintf fmt "spans (%d recorded):@." (List.length spans);
    Format.fprintf fmt "  %-28s %8s %12s %10s %10s %10s %10s@." "name" "count"
      "total ms" "mean ms" "p50 ms" "p90 ms" "p99 ms";
    List.iter
      (fun (name, durs) ->
        let sorted = Array.of_list durs in
        Array.sort Float.compare sorted;
        let count = Array.length sorted in
        let total = Array.fold_left ( +. ) 0. sorted in
        let ms v = v *. 1e3 in
        Format.fprintf fmt "  %-28s %8d %12.3f %10.4f %10.4f %10.4f %10.4f@."
          name count (ms total)
          (ms (total /. float_of_int count))
          (ms (exact_quantile sorted 0.50))
          (ms (exact_quantile sorted 0.90))
          (ms (exact_quantile sorted 0.99)))
      rows
  end;
  let cs = List.filter_map (function Counter (n, v) -> Some (n, v) | _ -> None) events in
  if cs <> [] then begin
    Format.fprintf fmt "counters:@.";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-34s %12d@." n v) cs
  end;
  let gs = List.filter_map (function Gauge (n, v) -> Some (n, v) | _ -> None) events in
  if gs <> [] then begin
    Format.fprintf fmt "gauges:@.";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-34s %12g@." n v) gs
  end;
  let hs =
    List.filter_map (function Histogram (n, h) -> Some (n, h) | _ -> None) events
  in
  if hs <> [] then begin
    Format.fprintf fmt "histograms:@.";
    Format.fprintf fmt "  %-28s %8s %12s %10s %10s %10s@." "name" "count"
      "sum" "p50" "p90" "p99";
    List.iter
      (fun (n, h) ->
        Format.fprintf fmt "  %-28s %8d %12.6g %10.4g %10.4g %10.4g@." n
          h.count h.sum (hist_quantile h 0.50) (hist_quantile h 0.90)
          (hist_quantile h 0.99))
      hs
  end;
  (* derived rates. *)
  let counter n = List.assoc_opt n cs in
  (match (counter "engine.cache.hits", counter "engine.cache.lookups") with
  | Some hits, Some lookups when lookups > 0 ->
      Format.fprintf fmt "engine cache hit rate: %d/%d (%.1f%%)@." hits lookups
        (100. *. float_of_int hits /. float_of_int lookups)
  | _ -> ())

let folded events =
  let spans =
    List.filter_map (function Span s -> Some s | _ -> None) events
  in
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  (* child time per parent id, to compute self time. *)
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p when Hashtbl.mem by_id p ->
          let cur =
            Option.value ~default:0. (Hashtbl.find_opt child_time p)
          in
          Hashtbl.replace child_time p (cur +. s.dur_s)
      | _ -> ())
    spans;
  let rec path s =
    match s.parent with
    | Some p when Hashtbl.mem by_id p -> path (Hashtbl.find by_id p) ^ ";" ^ s.name
    | _ -> s.name
  in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.dur_s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let us = int_of_float (Float.max 0. self *. 1e6) in
      let p = path s in
      let cur = Option.value ~default:0 (Hashtbl.find_opt acc p) in
      Hashtbl.replace acc p (cur + us))
    spans;
  Hashtbl.fold (fun p v l -> (p, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let reset () =
  stack () := [];
  ambient () := None;
  locked (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset gauges;
      Hashtbl.reset histograms)
