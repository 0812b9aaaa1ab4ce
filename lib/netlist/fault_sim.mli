(** Cone-reduced parallel fault simulation: one engine serves stream
    capture ({!run}, {!run_fold}, {!run_batches}) and time-domain detection
    ({!detect_exact}, {!detect_cycles}).

    One fault-free reference simulation records every node's value, one
    32-cycle chunk at a time, and the fault-free output stream.  Faults are
    packed 63 to a batch, one per lane, and each batch evaluates only the
    reduced program of its faults' union cone of influence (see {!Cone}),
    loading recorded fault-free values at the cone boundary.  Batches
    advance chunk by chunk and keep their DFF state between chunks.
    Capture records, each cycle, which lanes differ from the fault-free
    value on every output bit inside the cone, and after the last chunk
    unpacks those words into the full output stream of every fault — the
    form the spectral detection of the paper needs (the detector compares
    output {e spectra}, not samples).  A fault whose node cannot reach the
    output is never simulated: its stream is a fresh copy of the
    fault-free stream.

    {2 Domain-level parallelism}

    With a {!Msoc_util.Pool.t} of size > 1, each chunk's batches (plus the
    fill of the next fault-free chunk) run across the domains, each worker
    slot owning private scratch.  A batch's result does not depend on the
    slot that runs it, so the pooled result is bit-identical to the serial
    one for every pool size.  [drive] is only ever called on the single
    fault-free reference sim, for cycles [0 .. samples-1] in order.

    {2 Stream aliasing contract}

    {!run_fold} and {!run_batches} hand out reused per-worker buffers: a
    stream passed to a callback is {e only valid for the duration of the
    callback} — copy it ([Array.copy]) to retain it.  {!run} performs that
    copy at the API boundary, so [fault_streams] never alias each other or
    any internal buffer. *)

type run = {
  faults : Fault.t array;
  good_stream : int array;          (** Fault-free output, one value/cycle. *)
  fault_streams : int array array;  (** [fault_streams.(i)] matches [faults.(i)];
                                        freshly allocated, never aliased. *)
}

val run :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  run
(** Simulate [samples] cycles.  [drive sim cycle] must set all inputs for
    the given cycle (typically via {!Logic_sim.drive_bus}); [output] names
    the observed bus.  Raises [Not_found] for an unknown output name.
    With [pool], batches run across domains (see above); the result is
    bit-identical to the serial path. *)

val run_fold :
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  on_fault:(int -> Fault.t -> int array -> unit) ->
  int array
(** Streaming variant of {!run}: [on_fault index fault stream] is invoked
    once per fault, in fault order, as soon as its batch has simulated the
    last cycle; returns the fault-free stream.  [stream] is a reused buffer, valid
    only during the callback (see the aliasing contract above).  Memory
    holds one batch of unpacked streams plus, per batch, one word per
    cycle and output bit inside its cone — not a stream per fault.
    Always serial: the callback ordering is part of the contract. *)

val run_batches :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  on_batch:(int array -> int array array -> unit) ->
  int array
(** The batch-level form of {!run_fold}: [on_batch indices streams] is
    invoked once per simulated batch, by the worker that simulated it —
    concurrently across domains with [pool], in ascending batch order
    without.  [indices] are the batch's fault indices (ascending, at most
    {!Logic_sim.lanes}); [streams.(l)] is the output stream of
    [faults.(indices.(l))], valid only during the callback.  Faults whose
    node cannot reach [output] belong to no batch: their stream is the
    returned fault-free stream.  Results written by fault index are
    bit-identical for every pool size. *)

val detect_exact :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  bool array
(** Cheap time-domain detection: a fault is detected as soon as its output
    differs from the fault-free output in any cycle.

    Unlike capture, detection does not run batches to the end: between
    chunks, detected faults are {e dropped} and survivors repacked into
    fewer batches, each lane inheriting its DFF state from the lane's
    previous batch (faults whose cone does not reach [output] are rejected
    without simulating a cycle).  The repacking schedule is a pure function of the detection
    prefix, and each fault's flag is a pure predicate of (circuit, drive,
    samples, fault) — so the flags are bit-identical for every pool size,
    serial included, and [drive] is only ever called on the single
    reference sim (cycles 0..samples-1, in order).

    Exposed telemetry: ["fault_sim.dropped"] counts faults dropped before
    the end of the sweep. *)

val detect_cycles :
  ?pool:Msoc_util.Pool.t ->
  Netlist.t ->
  output:string ->
  drive:(Logic_sim.t -> int -> unit) ->
  samples:int ->
  faults:Fault.t array ->
  int array
(** Like {!detect_exact} but returns, per fault, the first cycle whose
    output differs from the fault-free machine, or [-1] if undetected —
    the graded detection prefix that lets ATPG truncate a sweep to its
    last useful pattern. *)
