module B = Netlist.Builder

type role = Multiplier | Register | Adder

type architecture = Transposed | Direct

type region = {
  tap : int;
  role : role;
  first_node : Netlist.node;
  last_node : Netlist.node;
}

type t = {
  circuit : Netlist.t;
  coeffs : int array;
  width_in : int;
  width_acc : int;
  scale : float;
  regions : region list;
}

let input_bus_name = "x"
let output_bus_name = "y"

let role_name = function
  | Multiplier -> "multiplier"
  | Register -> "register"
  | Adder -> "adder"

(* Width of a signed bus holding any bound * x for a [width_in]-bit input
   x, i.e. any magnitude up to bound * 2^(width_in - 1): the binary digits
   of the bound plus [width_in] (computed without forming the product). *)
let bound_width ~width_in bound =
  let rec digits v acc = if v = 0 then acc else digits (v lsr 1) (acc + 1) in
  digits (max bound 1) 0 + width_in

let output_width ~coeffs ~width_in =
  bound_width ~width_in (Array.fold_left (fun acc c -> acc + abs c) 0 coeffs)

let create ~coeffs ~width_in ?(scale = 1.0) ?(architecture = Transposed) () =
  let taps = Array.length coeffs in
  if taps < 1 then invalid_arg "Fir_netlist.create: no taps";
  if width_in < 2 then invalid_arg "Fir_netlist.create: width_in too small";
  (* Minimal datapath widths: each partial sum s_k = sum_{j>=k} c_j x[.] is
     bounded by (sum_{j>=k} |c_j|) * |x|_max, so the register/adder chain
     grows only as far as that suffix bound requires — no dead constant
     sign bits for stuck-at faults to hide on. *)
  let suffix_width k =
    let rec total j = if j >= taps then 0 else abs coeffs.(j) + total (j + 1) in
    bound_width ~width_in (total k)
  in
  let width_acc = suffix_width 0 in
  let b = B.create () in
  let regions = ref [] in
  let record tap role body =
    let first_node = B.node_count b in
    let result = body () in
    let last_node = B.node_count b - 1 in
    if last_node >= first_node then
      regions := { tap; role; first_node; last_node } :: !regions;
    result
  in
  let x = Array.init width_in (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let y =
    match architecture with
    | Transposed ->
      (* s_{K-1} = c_{K-1} x; s_k = c_k x + delay(s_{k+1}); y = s_0. *)
      let products =
        Array.mapi
          (fun tap c ->
            let width = Arith.width_for_product ~input_width:width_in ~coeff:c in
            record tap Multiplier (fun () -> Arith.scale_const b x ~coeff:c ~width))
          coeffs
      in
      let tail = ref products.(taps - 1) in
      for tap = taps - 2 downto 0 do
        let delayed = record (tap + 1) Register (fun () -> Arith.register_bus b !tail) in
        tail :=
          record tap Adder (fun () ->
              Arith.add_signed b products.(tap) delayed ~width:(suffix_width tap))
      done;
      Arith.sign_extend b !tail ~width:width_acc
    | Direct ->
      (* Input delay line, per-tap constant multipliers, balanced adder
         tree.  Tree node widths grow with the magnitude bound of the
         coefficients they cover. *)
      let delayed = Array.make taps x in
      for tap = 1 to taps - 1 do
        delayed.(tap) <-
          record tap Register (fun () -> Arith.register_bus b delayed.(tap - 1))
      done;
      let products =
        Array.mapi
          (fun tap c ->
            let width = Arith.width_for_product ~input_width:width_in ~coeff:c in
            record tap Multiplier (fun () ->
                Arith.scale_const b delayed.(tap) ~coeff:c ~width))
          coeffs
      in
      (* pairwise reduction; each level's width covers the summed |c| *)
      let rec reduce level nodes bounds =
        match (nodes, bounds) with
        | [ single ], _ -> single
        | _ ->
          let rec pair ns bs index acc_nodes acc_bounds =
            match (ns, bs) with
            | [], [] -> (List.rev acc_nodes, List.rev acc_bounds)
            | [ last ], [ bound ] -> (List.rev (last :: acc_nodes), List.rev (bound :: acc_bounds))
            | a :: c :: rest, ba :: bc :: brest ->
              let bound = ba + bc in
              let width = bound_width ~width_in bound in
              let sum =
                record index Adder (fun () -> Arith.add_signed b a c ~width)
              in
              pair rest brest (index + 1) (sum :: acc_nodes) (bound :: acc_bounds)
            | _, _ -> invalid_arg "Fir_netlist: tree bookkeeping"
          in
          let next_nodes, next_bounds = pair nodes bounds (level * taps) [] [] in
          reduce (level + 1) next_nodes next_bounds
      in
      let sum =
        reduce 1 (Array.to_list products)
          (Array.to_list (Array.map (fun c -> max 1 (abs c)) coeffs))
      in
      Arith.sign_extend b sum ~width:width_acc
  in
  B.output b input_bus_name x;
  B.output b output_bus_name y;
  { circuit = Netlist.freeze b;
    coeffs = Array.copy coeffs;
    width_in;
    width_acc;
    scale;
    regions = List.rev !regions }

let input_bus t = Netlist.find_output t.circuit input_bus_name
let output_bus t = Netlist.find_output t.circuit output_bus_name

let region_of_node t node =
  List.find_opt (fun r -> node >= r.first_node && node <= r.last_node) t.regions

let fault_site t ~tap ~role =
  let region = List.find (fun r -> r.tap = tap && r.role = role) t.regions in
  { Fault.node = (region.first_node + region.last_node) / 2; stuck = true }

let clamp_input t v =
  let lo = -(1 lsl (t.width_in - 1)) and hi = (1 lsl (t.width_in - 1)) - 1 in
  if v < lo then lo else if v > hi then hi else v

let drive t sim sample = Logic_sim.drive_bus sim (input_bus t) (clamp_input t sample)

let response t xs =
  let taps = Array.length t.coeffs in
  Array.init (Array.length xs) (fun n ->
      let acc = ref 0 in
      for k = 0 to min (taps - 1) n do
        acc := !acc + (t.coeffs.(k) * clamp_input t xs.(n - k))
      done;
      !acc)

let quantize_input t ~full_scale v =
  assert (full_scale > 0.0);
  let half_range = float_of_int (1 lsl (t.width_in - 1)) in
  let code = int_of_float (Float.round (v /. full_scale *. (half_range -. 1.0))) in
  clamp_input t code

let output_to_float t ~full_scale y =
  let half_range = float_of_int (1 lsl (t.width_in - 1)) in
  float_of_int y *. t.scale *. full_scale /. (half_range -. 1.0)
