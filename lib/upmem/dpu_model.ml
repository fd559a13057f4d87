type profile = {
  tasklets : int;
  chunks : int;
  dma_bytes : (int * float) list;
  compute_slots : float;
  prologue_slots : float;
  epilogue_slots : float;
}

let issue_period (cfg : Config.t) ~tasklets =
  float_of_int (max cfg.revolver_period tasklets)

let cap_chunks = 4096

(* Chunk [k] runs on tasklet [k mod t], the tasklet that has waited
   longest.  That is the list schedule "next runnable tasklet = earliest
   ready" because every assigned ready time is [engine_free + compute]
   (or, with no DMA, its own previous ready time + compute),
   [engine_free] never decreases and float rounding is monotone: the
   tasklet served longest ago is never ready later than any other.  So
   [ready] is a ring of the last [t] finish times, and the run of
   [cap_chunks / 2] chunks is an exact prefix of the run of
   [cap_chunks], which one loop records on the way.  Within a chunk,
   only the first DMA can wait for the engine: after it the tasklet's
   clock is [engine_free], and [max e e = e] bit for bit.  Every time is
   finite and non-negative, so the loop takes maxima with a plain
   comparison: [Float.max]'s NaN and signed-zero checks cost a C call
   per chunk and change no result. *)
let kernel_cycles cfg p =
  if p.chunks < 0 then invalid_arg "Dpu_model.kernel_cycles: negative chunks";
  let t = max 1 p.tasklets in
  let period = issue_period cfg ~tasklets:t in
  let compute = p.compute_slots *. period
  and epilogue = p.epilogue_slots *. period in
  let dma =
    Array.of_list
      (List.map (fun (b, n) -> n *. Timing.dma_cycles cfg b) p.dma_bytes)
  in
  let ndma = Array.length dma in
  let ready = Array.make t (p.prologue_slots *. period) in
  let finish () =
    let acc = ref 0. in
    for k = 0 to t - 1 do
      let f = ready.(k) +. epilogue in
      if f > !acc then acc := f
    done;
    !acc
  in
  let half = cap_chunks / 2 in
  let engine_free = ref 0. and t_half = ref 0. and i = ref 0 in
  for k = 0 to min p.chunks cap_chunks - 1 do
    if k = half then t_half := finish ();
    if ndma = 0 then ready.(!i) <- ready.(!i) +. compute
    else begin
      let r = ready.(!i) in
      engine_free := (if !engine_free > r then !engine_free else r) +. dma.(0);
      for j = 1 to ndma - 1 do
        engine_free := !engine_free +. dma.(j)
      done;
      ready.(!i) <- !engine_free +. compute
    end;
    i := if !i + 1 = t then 0 else !i + 1
  done;
  let t_full = finish () in
  if p.chunks <= cap_chunks then t_full
  else
    (* Steady-state extrapolation: the marginal per-chunk rate between
       [half] and [cap_chunks] chunks, extended linearly. *)
    let rate = (t_full -. !t_half) /. float_of_int (cap_chunks - half) in
    t_full +. (rate *. float_of_int (p.chunks - cap_chunks))
