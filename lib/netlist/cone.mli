(** Cone-of-influence extraction and reduced fault-simulation programs.

    A stuck-at fault on node [s] can only change the value of nodes in the
    transitive fanout of [s] (crossing DFF D→Q edges carries the effect
    across clock cycles), and it can only be detected if that fanout reaches
    an observed output.  This module computes those cones and compiles, for
    a {e batch} of faults, a reduced flattened opcode program that evaluates
    only the union cone: every other node of the circuit provably carries
    its fault-free value in every lane, so the evaluator substitutes the
    recorded fault-free value at the cone boundary instead of recomputing
    upstream logic.

    The reduction is exact, not approximate — for nodes inside the cone the
    reduced program computes bit-identical values to a full-netlist
    {!Logic_sim} run with the same faults injected, because the fanin of
    any cone node is either another cone node (computed) or a node outside
    every fault's fanout (fault-free by induction over levelized order and
    cycles). *)

type reduced = {
  prog_op : int array;  (** Opcodes of the cone's combinational nodes, in
                            global [Netlist.eval_order]. *)
  prog_dst : int array;
  prog_a : int array;
  prog_b : int array;   (** Operands are {e global} node ids; the evaluator
                            runs over full-sized value/mask arrays so no
                            renumbering is needed. *)
  boundary : int array; (** Non-member nodes read by the cone (gate fanins
                            and D inputs of member DFFs): load the
                            broadcast fault-free value each cycle. *)
  inputs : int array;   (** Member [Input] and constant nodes: broadcast
                            fault-free value, then apply the fault masks. *)
  dffs : int array;     (** Member DFF nodes, ascending by node id. *)
  dff_d : int array;    (** D driver of [dffs.(j)] (member or boundary). *)
  outputs : int array;  (** Positions in the output bus whose node is a
                            member: the only bus bits a fault of the batch
                            can change.  Every other bit carries its
                            fault-free value in every lane. *)
}

type scratch
(** Reusable per-worker traversal state (generation-stamped marks); one per
    domain, never shared concurrently. *)

val scratch : Netlist.t -> scratch

val observable : Netlist.t -> output:Netlist.node array -> bool array
(** Reverse reachability from the output bus through fanin edges (crossing
    DFFs): a fault on a node outside this set can never be detected. *)

val reduce :
  Netlist.t ->
  scratch ->
  succ:Netlist.node array array ->
  observable:bool array ->
  sources:Netlist.node list ->
  output:Netlist.node array ->
  reduced
(** Union cone of [sources] restricted to [observable], compiled to a
    reduced program.  [succ] is [Netlist.successors]; sources outside
    [observable] contribute nothing (their faults are undetectable). *)

val eval_program :
  reduced -> values:int array -> and_mask:int array -> or_mask:int array -> unit
(** One combinational evaluation of the reduced program over full-sized
    lane-parallel arrays, applying stuck-at masks exactly like
    [Logic_sim.eval].  Boundary/input/DFF values must already be loaded. *)
