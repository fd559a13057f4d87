type t = {
  h2d_s : float;
  kernel_s : float;
  d2h_s : float;
  host_s : float;
  launch_s : float;
  bytes_h2d : int;
  bytes_d2h : int;
  dpus_used : int;
  tasklets_used : int;
}

let zero =
  {
    h2d_s = 0.;
    kernel_s = 0.;
    d2h_s = 0.;
    host_s = 0.;
    launch_s = 0.;
    bytes_h2d = 0;
    bytes_d2h = 0;
    dpus_used = 0;
    tasklets_used = 0;
  }

let total_s t = t.h2d_s +. t.kernel_s +. t.d2h_s +. t.host_s +. t.launch_s

let add a b =
  {
    h2d_s = a.h2d_s +. b.h2d_s;
    kernel_s = a.kernel_s +. b.kernel_s;
    d2h_s = a.d2h_s +. b.d2h_s;
    host_s = a.host_s +. b.host_s;
    launch_s = a.launch_s +. b.launch_s;
    bytes_h2d = a.bytes_h2d + b.bytes_h2d;
    bytes_d2h = a.bytes_d2h + b.bytes_d2h;
    dpus_used = max a.dpus_used b.dpus_used;
    tasklets_used = max a.tasklets_used b.tasklets_used;
  }

let scale k t =
  {
    t with
    h2d_s = k *. t.h2d_s;
    kernel_s = k *. t.kernel_s;
    d2h_s = k *. t.d2h_s;
    host_s = k *. t.host_s;
    launch_s = k *. t.launch_s;
  }

let speedup ~baseline t = total_s baseline /. total_s t

let pp ppf t =
  Format.fprintf ppf
    "total=%.3fms (h2d=%.3f kernel=%.3f d2h=%.3f host=%.3f launch=%.3f) \
     dpus=%d tasklets=%d"
    (total_s t *. 1e3) (t.h2d_s *. 1e3) (t.kernel_s *. 1e3) (t.d2h_s *. 1e3)
    (t.host_s *. 1e3) (t.launch_s *. 1e3) t.dpus_used t.tasklets_used
