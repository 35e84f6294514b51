open Setagree_util

type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Psync of { gst : float; bound : float; pre_spread : float }
  | Fn of (rng:Rng.t -> src:Pid.t -> dst:Pid.t -> now:float -> float)

let sample t ~rng ~src ~dst ~now =
  let d =
    match t with
    | Constant c -> c
    | Uniform (lo, hi) -> Rng.uniform_in rng lo hi
    | Exponential mean -> Rng.exponential rng ~mean
    | Psync { gst; bound; pre_spread } ->
        if now < gst then
          (* The adversary may park a pre-gst message until after gst, but
             never beyond gst + bound (messages are not lost). *)
          let d = Rng.uniform_in rng 0.0 pre_spread in
          Float.min d (gst +. bound -. now)
        else Rng.uniform_in rng 0.0 bound
    | Fn f -> f ~rng ~src ~dst ~now
  in
  Float.max 0.0 d

(* [sample] for destinations [0 .. len-1] of one broadcast, into [row]:
   the same draws, in destination order.  The uniform models fill the
   row inside [Rng], so no delay is boxed on its way here. *)
let sample_row t ~rng ~src ~now row len =
  match t with
  | Constant c -> Array.fill row 0 len (Float.max 0.0 c)
  | Uniform (lo, hi) ->
      Rng.fill_uniform rng row len lo hi;
      for dst = 0 to len - 1 do
        row.(dst) <- Float.max 0.0 row.(dst)
      done
  | Psync { gst; bound; pre_spread } ->
      if now < gst then begin
        Rng.fill_uniform rng row len 0.0 pre_spread;
        let cap = gst +. bound -. now in
        for dst = 0 to len - 1 do
          row.(dst) <- Float.max 0.0 (Float.min row.(dst) cap)
        done
      end
      else begin
        Rng.fill_uniform rng row len 0.0 bound;
        for dst = 0 to len - 1 do
          row.(dst) <- Float.max 0.0 row.(dst)
        done
      end
  | Exponential _ | Fn _ ->
      for dst = 0 to len - 1 do
        row.(dst) <- sample t ~rng ~src ~dst ~now
      done

let default = Uniform (0.5, 1.5)

(* Shared by the stubborn transport's resend loop and the adaptive
   failure-detector timeouts: capped exponential backoff with
   deterministic jitter.  attempt 0 is the base interval. *)
let backoff_interval ~base ~factor ~cap ~jitter ~rng ~attempt =
  let attempt = max 0 attempt in
  let raw = base *. (factor ** float_of_int attempt) in
  let capped = Float.min cap raw in
  let j =
    if jitter <= 0.0 then 0.0
    else Rng.uniform_in rng (-.jitter) jitter *. capped
  in
  Float.max (0.01 *. base) (capped +. j)
