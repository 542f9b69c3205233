type t = { devices : Device.t array; params : Device.params; v0 : float }

type cell_obs = {
  v_te : float;
  v_be : float;
  resistance : float;
  current : float;
}

type drive =
  | Vop of { v_te : Float.Array.t; v_be : float }
  | Gate of {
      in1 : int;
      in2 : int;
      out : int;
      in_te : float;
      in_be : float;
      out_te : float;
      out_be : float;
    }
  | Read of { cell : int; v_read : float }

type cycle = { drive : drive; driven : Float.Array.t }

let create ~rng ~n ?(params = Device.default_params) ?(v0 = 9.0) () =
  if n <= 0 then invalid_arg "Line_array.create";
  { devices = Array.init n (fun _ -> Device.create ~rng params); params; v0 }

let size t = Array.length t.devices

let device t i =
  if i < 0 || i >= size t then invalid_arg "Line_array.device";
  t.devices.(i)

let states t = Array.map Device.state t.devices

let resistances t = Float.Array.map_from_array Device.resistance t.devices

let set_states t l = List.iter (fun (i, b) -> Device.set_state (device t i) b) l

let vop_cycle t ~te ~be =
  let vw = t.params.Device.v_write in
  let v_be = if be then vw else 0.0 in
  let v_te = Float.Array.create (size t) in
  Array.iteri
    (fun i d ->
      let v = match te i with Some true -> vw | Some false -> 0.0 | None -> v_be in
      Float.Array.set v_te i v;
      ignore (Device.apply d ~v_te:v ~v_be : float))
    t.devices;
  { drive = Vop { v_te; v_be }; driven = resistances t }

(* A gate's cycle: the drive plus the resistances of in1, in2 and out. *)
let gate_cycle d1 d2 dout drive =
  let driven = Float.Array.create 3 in
  Float.Array.set driven 0 (Device.resistance d1);
  Float.Array.set driven 1 (Device.resistance d2);
  Float.Array.set driven 2 (Device.resistance dout);
  { drive; driven }

(* Quasi-transient divider: the output device is designed to switch first;
   once it has settled, the remaining node-voltage stress lands on the
   inputs. Under nominal parameters the settled output shields the inputs;
   under heavy variation a sluggish output leaves LRS inputs exposed to a
   destructive RESET — the cascading-R-op failure mode the paper warns
   about. *)
let magic_nor t ~in1 ~in2 ~out =
  let d1 = device t in1 and d2 = device t in2 and dout = device t out in
  if in1 = out || in2 = out then invalid_arg "Line_array.magic_nor";
  (* in1 = in2 is the degenerate 2-device MAGIC NOT: the divider sees a
     single input device instead of two in parallel *)
  let node_voltage () =
    let r1 = Device.resistance d1
    and r2 = Device.resistance d2
    and ro = Device.resistance dout in
    let rp = if in1 = in2 then r1 else r1 *. r2 /. (r1 +. r2) in
    t.v0 *. ro /. (rp +. ro)
  in
  (* output sees the node voltage in RESET polarity *)
  Device.apply_across dout (-.(node_voltage ()));
  (* inputs see the residual stress, also in RESET polarity *)
  let v_n = node_voltage () in
  Device.apply_across d1 (-.(t.v0 -. v_n));
  Device.apply_across d2 (-.(t.v0 -. v_n));
  gate_cycle d1 d2 dout
    (Gate
       {
         in1;
         in2;
         out;
         in_te = t.v0;
         in_be = v_n;
         out_te = t.v0 -. v_n;
         out_be = t.v0 -. v_n -. v_n;
       })

(* NIMP(in1, in2) = in1 ∧ ¬in2: the output (preset HRS) sees
   v0 · R2 / (R1 + R2) in SET polarity — large only when in1 is LRS (small
   R1) and in2 is HRS (large R2). *)
let magic_nimp t ~in1 ~in2 ~out =
  let d1 = device t in1 and d2 = device t in2 and dout = device t out in
  if in1 = out || in2 = out then invalid_arg "Line_array.magic_nimp";
  (* NIMP discriminates v(1,1) = v0n/2 from v(1,0) ≈ v0n, so its drive
     voltage sits lower than the NOR's: v0n = 2/3 · v0 places the two cases
     at 3 V and ~5.9 V around the 4 V SET threshold with default params. *)
  let v0n = t.v0 *. 2.0 /. 3.0 in
  let node_voltage () =
    let r1 = Device.resistance d1 and r2 = Device.resistance d2 in
    v0n *. r2 /. (r1 +. r2)
  in
  Device.apply_across dout (node_voltage ());
  let v_n = node_voltage () in
  (* residual stress on the inputs in SET polarity; the IMPLY-style driver
     halves it (V_COND < V_SET), leaving nominal operation disturb-free
     while variation can still push it over the threshold *)
  Device.apply_across d1 ((v0n -. v_n) /. 2.0);
  Device.apply_across d2 ((v0n -. v_n) /. 2.0);
  gate_cycle d1 d2 dout
    (Gate
       { in1; in2; out; in_te = v0n; in_be = v_n; out_te = v_n; out_be = 0.0 })

let read t i =
  let d = device t i in
  let current = Device.read_current d in
  (Device.state d, current)

let read_cycle t i =
  if i < 0 || i >= size t then invalid_arg "Line_array.read_cycle";
  { drive = Read { cell = i; v_read = t.params.Device.v_read };
    driven = Float.Array.create 0 }

let update rs { drive; driven } =
  match drive with
  | Vop _ -> Float.Array.blit driven 0 rs 0 (Float.Array.length rs)
  | Gate { in1; in2; out; _ } ->
    Float.Array.set rs in1 (Float.Array.get driven 0);
    Float.Array.set rs in2 (Float.Array.get driven 1);
    Float.Array.set rs out (Float.Array.get driven 2)
  | Read _ -> ()

(* The electrode voltages of cell [i] in a cycle. *)
let voltages drive i =
  match drive with
  | Vop { v_te; v_be } -> (Float.Array.get v_te i, v_be)
  | Gate { in1; in2; out; in_te; in_be; out_te; out_be } ->
    if i = out then (out_te, out_be)
    else if i = in1 || i = in2 then (in_te, in_be)
    else (0.0, 0.0)
  | Read { cell; v_read } -> if i = cell then (v_read, 0.0) else (0.0, 0.0)

let observe drive resistances =
  Array.init (Float.Array.length resistances) (fun i ->
      let v_te, v_be = voltages drive i in
      let r = Float.Array.get resistances i in
      { v_te; v_be; resistance = r; current = Float.abs ((v_te -. v_be) /. r) })

let total_switches t =
  Array.fold_left (fun acc d -> acc + Device.switch_count d) 0 t.devices
