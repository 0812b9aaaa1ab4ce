module Pool = Msoc_util.Pool
module Obs = Msoc_obs.Obs
module Progress = Msoc_obs.Progress

(* Heartbeat cells, written on coarse boundaries only (per batch chunk, per
   round — never per cycle).  Disabled writes cost one atomic load, and no
   cell feeds back into results. *)
let prog_batches = Progress.cell "fault_sim.batches"
let prog_batches_total = Progress.cell "fault_sim.batches_total"
let prog_cycles = Progress.cell "fault_sim.cycles"
let prog_cycles_total = Progress.cell "fault_sim.cycles_total"
let prog_detected = Progress.cell "fault_sim.detected"
let prog_faults = Progress.cell "fault_sim.faults"

type run = {
  faults : Fault.t array;
  good_stream : int array;
  fault_streams : int array array;
}

(* ------------------------------------------------------------------------
   The engine: chunked, cone-reduced, lane-packed.

   One fault-free reference sim records every node's lane-0 bit per cycle
   (the {e good table}, one chunk at a time) and the fault-free output
   stream; fault batches pack all 63 lanes with faults and evaluate only
   the reduced program of the batch's union cone, loading the good table
   at the cone boundary.  Batches advance chunk by chunk in rounds,
   keeping their DFF state words from one chunk to the next.  Two modes
   share the batch runner:

   - detection compares the cone's output bits against the good table;
     between chunks, detected faults are dropped and survivors repacked
     into fewer batches.  A new batch inherits each lane's DFF state from
     the lane's previous batch where the DFF was in that batch's cone and
     the fault-free bit everywhere else (lanes provably carry fault-free
     values outside their own fault's cone);
   - capture never drops: each cycle it records, per output bit inside the
     cone, which lanes differ from the fault-free bit, and after the last
     chunk unpacks those words into the batch's streams.

   Faults outside the output's observable set are never simulated: they
   are undetected and their stream is the fault-free one.  Every step is a
   pure function of (circuit, drive, samples, faults) — the repacking
   schedule depends only on the detection prefix — so results are
   bit-identical for any pool size, including serial. *)

let chunk_cycles = 32

type batch = {
  fault_idx : int array; (* lane l hosts faults.(fault_idx.(l)); ascending *)
  carry : (batch * int) array;
      (* per lane: (previous-round batch, lane) whose DFF state this lane
         inherits; [||] means reset state (cycle 0) *)
  mutable red : Cone.reduced option; (* built by the worker that first runs it *)
  mutable state : int array; (* lane words per red.dffs, at the chunk boundary *)
  mutable det_mask : int;
  mutable diffs : int array;
      (* capture: word [cycle * |red.outputs| + k] has bit l set where lane
         l's output bit [red.outputs.(k)] differs from the fault-free bit *)
}

type mode =
  | Detect of { detected : bool array; first : int array }
      (* newly detected faults land here by fault index — disjoint across
         batches, so concurrent batches never contend *)
  | Capture of { on_batch : int array -> int array array -> unit }

type scratch = {
  values : int array;
  am : int array;
  om : int array;
  cone : Cone.scratch;
  streams : int array array; (* capture: one unpacked stream per lane *)
}

let scratch circuit ~stream_len =
  let n = Netlist.node_count circuit in
  { values = Array.make n 0;
    am = Array.make n (-1); (* all lanes pass-through *)
    om = Array.make n 0;
    cone = Cone.scratch circuit;
    streams = Array.init Logic_sim.lanes (fun _ -> Array.make stream_len 0) }

let lane_mask nlanes = if nlanes >= Logic_sim.lanes then -1 else (1 lsl nlanes) - 1

(* 0 -> all-zero word, 1 -> all-ones word (every lane carries the bit) *)
let[@inline] broadcast byte = -byte

(* index of the lowest set bit of a nonzero word *)
let ctz w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFF_FFFF = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n

let find_sorted arr x =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = arr.(mid) in
    if v = x then begin
      res := mid;
      lo := !hi + 1
    end
    else if v < x then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let make_batches idxs carries =
  let total = Array.length idxs in
  let per = Logic_sim.lanes in
  let count = (total + per - 1) / per in
  List.init count (fun b ->
      let lo = b * per in
      let len = min per (total - lo) in
      { fault_idx = Array.sub idxs lo len;
        carry = (if Array.length carries = 0 then [||] else Array.sub carries lo len);
        red = None;
        state = [||];
        det_mask = 0;
        diffs = [||] })

(* Lane l's output in cycle c is the fault-free value with every bit whose
   diff word has lane l set flipped; flipping the sign bit flips the whole
   sign extension. *)
let unpack ~width ~outs ~diffs ~good_stream streams =
  let samples = Array.length good_stream and nout = Array.length outs in
  Array.iter (fun s -> Array.blit good_stream 0 s 0 samples) streams;
  let flip = Array.map (fun w -> if w = width - 1 then -1 lsl w else 1 lsl w) outs in
  for c = 0 to samples - 1 do
    for k = 0 to nout - 1 do
      let d = ref (Array.unsafe_get diffs ((c * nout) + k)) in
      if !d <> 0 then begin
        let f = flip.(k) in
        while !d <> 0 do
          let s = streams.(ctz !d) in
          Array.unsafe_set s c (Array.unsafe_get s c lxor f);
          d := !d land (!d - 1)
        done
      end
    done
  done

(* Run one batch over cycles [c0, c1) against the good-table chunk [good]
   (row 0 = cycle c0).  In capture mode, the batch's streams are handed to
   [on_batch] by this worker as soon as its last chunk is simulated. *)
let run_batch sc circuit (faults : Fault.t array) ~mode ~succ ~obsv ~bus ~n ~good
    ~good_stream ~c0 ~c1 batch =
  let samples = Array.length good_stream in
  let red =
    match batch.red with
    | Some r -> r
    | None ->
      let sources =
        Array.fold_right (fun fi acc -> faults.(fi).Fault.node :: acc) batch.fault_idx []
      in
      let r = Cone.reduce circuit sc.cone ~succ ~observable:obsv ~sources ~output:bus in
      let ndff = Array.length r.Cone.dffs in
      let st = Array.make ndff 0 in
      if c0 > 0 then
        for j = 0 to ndff - 1 do
          let dff = r.Cone.dffs.(j) in
          (* fault-free boundary state: the good machine's DFF value in the
             chunk's first cycle is exactly its state (masks are identity) *)
          let goodbit = Char.code (Bytes.unsafe_get good dff) in
          let w = ref (broadcast goodbit) in
          Array.iteri
            (fun lane (ob, ol) ->
              match ob.red with
              | None -> assert false (* carry sources always ran a chunk *)
              | Some ored ->
                let oj = find_sorted ored.Cone.dffs dff in
                if oj >= 0 then begin
                  let bit = (ob.state.(oj) lsr ol) land 1 in
                  if bit <> goodbit then
                    if bit = 1 then w := !w lor (1 lsl lane)
                    else w := !w land lnot (1 lsl lane)
                end)
            batch.carry;
          st.(j) <- !w
        done;
      batch.red <- Some r;
      batch.state <- st;
      (match mode with
      | Capture _ -> batch.diffs <- Array.make (samples * Array.length r.Cone.outputs) 0
      | Detect _ -> ());
      r
  in
  let values = sc.values and am = sc.am and om = sc.om in
  let fault_idx = batch.fault_idx in
  let nlanes = Array.length fault_idx in
  for lane = 0 to nlanes - 1 do
    let f = faults.(fault_idx.(lane)) in
    let bit = 1 lsl lane in
    if f.Fault.stuck then om.(f.Fault.node) <- om.(f.Fault.node) lor bit
    else am.(f.Fault.node) <- am.(f.Fault.node) land lnot bit
  done;
  let capture = match mode with Capture _ -> true | Detect _ -> false in
  let st = batch.state and diffs = batch.diffs in
  let boundary = red.Cone.boundary and inp = red.Cone.inputs in
  let dffs = red.Cone.dffs and dff_d = red.Cone.dff_d and outs = red.Cone.outputs in
  let nout = Array.length outs in
  let live_full = lane_mask nlanes in
  let det = ref batch.det_mask in
  let cycle = ref c0 in
  while !cycle < c1 && (capture || !det land live_full <> live_full) do
    let base = (!cycle - c0) * n in
    for k = 0 to Array.length boundary - 1 do
      let node = Array.unsafe_get boundary k in
      Array.unsafe_set values node (broadcast (Char.code (Bytes.unsafe_get good (base + node))))
    done;
    for k = 0 to Array.length inp - 1 do
      let node = Array.unsafe_get inp k in
      let g = broadcast (Char.code (Bytes.unsafe_get good (base + node))) in
      Array.unsafe_set values node
        (g land Array.unsafe_get am node lor Array.unsafe_get om node)
    done;
    for j = 0 to Array.length dffs - 1 do
      let node = Array.unsafe_get dffs j in
      Array.unsafe_set values node
        (Array.unsafe_get st j land Array.unsafe_get am node lor Array.unsafe_get om node)
    done;
    Cone.eval_program red ~values ~and_mask:am ~or_mask:om;
    let diff = ref 0 in
    let row = !cycle * nout in
    for k = 0 to nout - 1 do
      let node = Array.unsafe_get bus (Array.unsafe_get outs k) in
      let d =
        (Array.unsafe_get values node
        lxor broadcast (Char.code (Bytes.unsafe_get good (base + node))))
        land live_full
      in
      if capture then Array.unsafe_set diffs (row + k) d;
      diff := !diff lor d
    done;
    (match mode with
    | Capture _ -> ()
    | Detect { detected; first } ->
      let fresh = !diff land lnot !det in
      if fresh <> 0 then begin
        det := !det lor fresh;
        let f = ref fresh in
        while !f <> 0 do
          let fi = fault_idx.(ctz !f) in
          detected.(fi) <- true;
          first.(fi) <- !cycle;
          f := !f land (!f - 1)
        done
      end);
    for j = 0 to Array.length dffs - 1 do
      Array.unsafe_set st j (Array.unsafe_get values (Array.unsafe_get dff_d j))
    done;
    incr cycle
  done;
  batch.det_mask <- !det;
  (* restore the scratch masks for the slot's next batch *)
  for lane = 0 to nlanes - 1 do
    let node = faults.(fault_idx.(lane)).Fault.node in
    am.(node) <- -1;
    om.(node) <- 0
  done;
  match mode with
  | Capture { on_batch } ->
    Progress.add prog_batches (float_of_int (c1 - c0) /. float_of_int samples);
    if c1 = samples then begin
      let streams = Array.sub sc.streams 0 nlanes in
      unpack ~width:(Array.length bus) ~outs ~diffs ~good_stream streams;
      batch.diffs <- [||];
      on_batch fault_idx streams
    end
  | Detect _ -> ()

(* Fill [good_stream] (length = samples) with the fault-free output and run
   [mode] over every fault; [drive] is only called on the reference sim,
   for cycles 0..samples-1 in order. *)
let engine ?pool circuit ~output ~drive ~faults ~good_stream ~mode =
  let samples = Array.length good_stream in
  let nf = Array.length faults in
  let capture = match mode with Capture _ -> true | Detect _ -> false in
  if samples > 0 && (capture || nf > 0) then begin
    let n = Netlist.node_count circuit in
    let bus = Netlist.find_output circuit output in
    let succ = Netlist.successors circuit in
    let obsv = Cone.observable circuit ~output:bus in
    let eligible =
      let acc = ref [] in
      for fi = nf - 1 downto 0 do
        if obsv.(faults.(fi).Fault.node) then acc := fi :: !acc
      done;
      Array.of_list !acc
    in
    let chunk = min chunk_cycles samples in
    (* Double-buffered good table: while round r's batches read chunk r,
       one extra work item fills chunk r+1 — only chunk 0 is sequential. *)
    let good_a = Bytes.create (n * chunk) in
    let good_b = Bytes.create (n * chunk) in
    let gsim = Logic_sim.create circuit in
    let fill_good buf c0 c1 =
      for cycle = c0 to c1 - 1 do
        drive gsim cycle;
        Logic_sim.eval gsim;
        Logic_sim.snapshot_bit0 gsim buf ~pos:((cycle - c0) * n);
        good_stream.(cycle) <- Logic_sim.read_bus_lane gsim bus ~lane:0;
        Logic_sim.tick gsim
      done
    in
    fill_good good_a 0 chunk;
    let stream_len = if capture then samples else 0 in
    let scratch_of =
      match pool with
      | Some p when Pool.size p > 1 -> Pool.per_slot p (fun () -> scratch circuit ~stream_len)
      | _ ->
        let s = scratch circuit ~stream_len in
        fun _ -> s
    in
    let batches = ref (make_batches eligible [||]) in
    Progress.set prog_cycles_total (float_of_int samples);
    Progress.set prog_faults (float_of_int nf);
    if capture then Progress.set prog_batches_total (float_of_int (List.length !batches));
    let r = ref 0 in
    let finished = ref (!batches = [] && not capture) in
    while not !finished do
      let c0 = !r * chunk in
      let c1 = min samples (c0 + chunk) in
      let cur = if !r land 1 = 0 then good_a else good_b in
      let nxt = if !r land 1 = 0 then good_b else good_a in
      let arr = Array.of_list !batches in
      let nb = Array.length arr in
      let more = c1 < samples in
      (* item 0 fills the next chunk, so it starts first *)
      let fill = if more then 1 else 0 in
      let item slot i =
        if i < fill then fill_good nxt c1 (min samples (c1 + chunk))
        else
          run_batch (scratch_of slot) circuit faults ~mode ~succ ~obsv ~bus ~n ~good:cur
            ~good_stream ~c0 ~c1 arr.(i - fill)
      in
      let nitems = nb + fill in
      (match pool with
      | Some p when Pool.size p > 1 && nitems > 1 ->
        (* about four grains per worker and round: enough stealing to level
           uneven cones, while the chunk count (one telemetry span each)
           stays near the batch count rather than batches x rounds *)
        Pool.parallel_iter_grained p ~n:nitems ~grain:(max 1 (nitems / (4 * Pool.size p)))
          ~f:(fun ~slot ~lo ~hi ->
            for i = lo to hi - 1 do
              item slot i
            done)
          ()
      | _ ->
        for i = 0 to nitems - 1 do
          item 0 i
        done);
      (* serial coordinator section: heartbeat once per round *)
      Progress.set prog_cycles (float_of_int c1);
      (match mode with
      | Capture _ -> if not more then finished := true
      | Detect _ ->
        (* Drop detected faults; repack survivors (ascending, 63 per batch).
           When nothing dropped, batch compositions are unchanged and their
           in-place state words already sit at the next chunk boundary. *)
        let survivors = ref [] and carries = ref [] and dropped = ref 0 in
        for b = nb - 1 downto 0 do
          let batch = arr.(b) in
          let idxs = batch.fault_idx in
          for lane = Array.length idxs - 1 downto 0 do
            if batch.det_mask land (1 lsl lane) <> 0 then incr dropped
            else begin
              survivors := idxs.(lane) :: !survivors;
              carries := (batch, lane) :: !carries
            end
          done
        done;
        Progress.add prog_detected (float_of_int !dropped);
        if (not more) || !survivors = [] then finished := true
        else if !dropped > 0 then begin
          Obs.count ~by:!dropped "fault_sim.dropped";
          batches := make_batches (Array.of_list !survivors) (Array.of_list !carries)
        end);
      incr r
    done
  end

let capture ?pool circuit ~output ~drive ~faults ~good_stream ~on_batch =
  Obs.count "fault_sim.runs";
  Obs.count ~by:(Array.length faults) "fault_sim.faults";
  Obs.span "fault_sim.run" @@ fun () ->
  engine ?pool circuit ~output ~drive ~faults ~good_stream ~mode:(Capture { on_batch })

let run_batches ?pool circuit ~output ~drive ~samples ~faults ~on_batch =
  let good_stream = Array.make samples 0 in
  capture ?pool circuit ~output ~drive ~faults ~good_stream ~on_batch;
  good_stream

let run ?pool circuit ~output ~drive ~samples ~faults =
  let fault_streams = Array.make (Array.length faults) [||] in
  let on_batch idx streams =
    Array.iteri (fun lane fi -> fault_streams.(fi) <- Array.copy streams.(lane)) idx
  in
  let good_stream = run_batches ?pool circuit ~output ~drive ~samples ~faults ~on_batch in
  (* faults never simulated (outside the observable set) still hold [||] *)
  Array.iteri
    (fun fi s -> if Array.length s < samples then fault_streams.(fi) <- Array.copy good_stream)
    fault_streams;
  { faults; good_stream; fault_streams }

let run_fold circuit ~output ~drive ~samples ~faults ~on_fault =
  let good_stream = Array.make samples 0 in
  let spare = Array.make samples 0 in
  let next = ref 0 in
  (* unsimulated faults carry the fault-free stream: hand them over in
     fault order, from a scratch copy the callback may clobber *)
  let good_until stop =
    while !next < stop do
      Array.blit good_stream 0 spare 0 samples;
      on_fault !next faults.(!next) spare;
      incr next
    done
  in
  let on_batch idx streams =
    Array.iteri
      (fun lane fi ->
        good_until fi;
        on_fault fi faults.(fi) streams.(lane);
        next := fi + 1)
      idx
  in
  capture circuit ~output ~drive ~faults ~good_stream ~on_batch;
  good_until (Array.length faults);
  good_stream

let detect ?pool circuit ~output ~drive ~samples ~faults =
  Obs.count "fault_sim.detects";
  Obs.count ~by:(Array.length faults) "fault_sim.faults";
  Obs.span "fault_sim.detect" @@ fun () ->
  let nf = Array.length faults in
  let detected = Array.make nf false and first = Array.make nf (-1) in
  engine ?pool circuit ~output ~drive ~faults ~good_stream:(Array.make (max samples 0) 0)
    ~mode:(Detect { detected; first });
  (detected, first)

let detect_exact ?pool circuit ~output ~drive ~samples ~faults =
  fst (detect ?pool circuit ~output ~drive ~samples ~faults)

let detect_cycles ?pool circuit ~output ~drive ~samples ~faults =
  snd (detect ?pool circuit ~output ~drive ~samples ~faults)
