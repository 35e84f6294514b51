open Setagree_fd

let valid_x ~n ~x = Result.is_ok (Oracle.check_x ~n ~x)
let valid_y ~t ~y = Result.is_ok (Oracle.check_y ~t ~y)
let valid_z ~n ~z = Result.is_ok (Oracle.check_z ~n ~z)
let addition_possible ~t ~x ~y ~z = x + y + z >= t + 2
let z_of_addition ~t ~x ~y = max 1 (t + 2 - x - y)

let wheels_admissible ~n ~t ~x ~y =
  valid_x ~n ~x && valid_y ~t ~y && x + y <= t + 1 && t - y + 1 >= 1
  && t - y + 1 <= n

let upper_y_size ~t ~y = t - y + 1
let es_to_omega_possible ~t ~x ~z = addition_possible ~t ~x ~y:0 ~z
let phi_to_omega_possible ~t ~y ~z = addition_possible ~t ~x:1 ~y ~z
let omega_from_es ~t ~x = max 1 (t + 2 - x)
let omega_from_phi ~t ~y = max 1 (t + 1 - y)
let kset_with_omega ~n ~t ~z ~k = 2 * t < n && z <= k
let kset_from_es ~t ~x = max 1 (t - x + 2)
let kset_from_phi ~t ~y = max 1 (t - y + 1)

type row = { z : int; sx : int; phiy : int }

let grid_row ~t ~z = { z; sx = t - z + 2; phiy = t - z + 1 }
let grid ~t = List.init (t + 1) (fun i -> grid_row ~t ~z:(i + 1))
let strengthen_possible ~t ~x ~y = x + y >= t + 1
let psi_chain_length ~n ~z = n - z + 1
