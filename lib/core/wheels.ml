open Setagree_dsys
open Setagree_net
open Setagree_fd

type t = {
  sim : Sim.t;
  x : int;
  y : int;
  z : int;
  lower : Wheels_lower.t;
  upper : Wheels_upper.t;
}

let check ~n ~t ~x ~y =
  if Bounds.wheels_admissible ~n ~t ~x ~y then Ok ()
  else
    Error (Printf.sprintf "x=%d y=%d: the wheels need 1 <= x, 0 <= y, x + y <= t + 1 <= n + y" x y)

let install sim ~(suspector : Iface.suspector) ~(querier : Iface.querier) ~x ~y
    ?(step = 1.0) ?(delay = Delay.default) () =
  let n = Sim.n sim in
  let tb = Sim.t_bound sim in
  Result.iter_error (fun e -> invalid_arg ("Wheels.install: " ^ e))
    (check ~n ~t:tb ~x ~y);
  let z = Bounds.z_of_addition ~t:tb ~x ~y in
  let lower = Wheels_lower.install sim ~suspector ~x ~step ~delay () in
  let upper =
    Wheels_upper.install sim ~querier ~lower
      ~ysize:(Bounds.upper_y_size ~t:tb ~y)
      ~lsize:z ~step ~delay ()
  in
  { sim; x; y; z; lower; upper }

let z t = t.z
let omega t = Wheels_upper.omega t.upper
let lower t = t.lower
let upper t = t.upper

let total_messages t =
  Wheels_lower.underlying_sent t.lower + Wheels_upper.underlying_sent t.upper

let stabilized_since t =
  Float.max (Wheels_lower.last_pos_change t.lower) (Wheels_upper.last_pos_change t.upper)
