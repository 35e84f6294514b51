open Setagree_util
open Setagree_dsys
open Setagree_fd

type t = {
  z : int;
  chain : Pidset.t array; (* chain.(0) = Y[1], ..., sizes z, z+1, ..., n *)
  querier : Iface.querier;
}

let create sim ~(querier : Iface.querier) ~y =
  let n = Sim.n sim in
  let tb = Sim.t_bound sim in
  Result.iter_error (fun e -> invalid_arg ("Psi_to_omega.create: " ^ e))
    (Oracle.check_y ~t:tb ~y);
  let z = tb + 1 - y in
  let len = Bounds.psi_chain_length ~n ~z in
  let chain =
    Array.init len (fun i ->
        (* Y[i+1] = the first z+i process identities. *)
        Pidset.of_list (List.init (z + i) Fun.id))
  in
  { z; chain; querier }

let z t = t.z
let chain t = Array.to_list t.chain
let queries_per_read t = Array.length t.chain

let trusted t i =
  let len = Array.length t.chain in
  (* First k with query(Y[k]) false; Y[0] = empty set is trivially true and
     is skipped.  If everything answers true (possible only under pre-gst
     noise), fall back to the last link. *)
  let rec find k =
    if k >= len then len - 1
    else if not (t.querier.Iface.query i t.chain.(k)) then k
    else find (k + 1)
  in
  let k = find 0 in
  if k = 0 then t.chain.(0) else Pidset.diff t.chain.(k) t.chain.(k - 1)

let omega t = { Iface.trusted = (fun i -> trusted t i) }
