"""Workload drivers and mesh statistics only tests call.

``run_rebalance_campaign`` is Table 2's epoch loop driven end to end --
drift the per-node work (``drifting_weights``), let the greedy balancer
pick the moves (``rebalance_moves``), remap, sweep -- in either
full-rebuild or incremental remap mode.  Both modes land on
bit-identical distributions and array contents; only the simulated
remap charges differ.  The fault matrix and the miss-path fingerprints
drive it too.
"""

import numpy as np

from repro.distribution.irregular import repartition_stable
from repro.machine.machine import Machine
from repro.workloads.euler import euler_edge_loop, setup_euler_program
from repro.workloads.rebalance import drifting_weights, rebalance_moves


def degree(mesh) -> np.ndarray:
    """Edges incident to each node of ``mesh``."""
    deg = np.zeros(mesh.n_nodes, dtype=np.int64)
    np.add.at(deg, mesh.edges[0], 1)
    np.add.at(deg, mesh.edges[1], 1)
    return deg


def setup_rebalance_program(machine, mesh, seed=0, **kwargs):
    """Euler program partitioned by RCB: the campaign's starting state."""
    prog = setup_euler_program(machine, mesh, seed=seed, **kwargs)
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"][: mesh.ndim])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return prog


def run_rebalance_campaign(
    mesh,
    n_procs,
    epochs,
    sweeps=1,
    incremental=True,
    seed=0,
    slack=0.05,
    fault_plan=None,
    **program_kwargs,
):
    """Drive ``epochs`` rebalance/remap/sweep rounds.

    ``incremental=False`` builds each epoch's remap schedule from
    scratch over every element (``build_remap_schedule``'s O(N) path);
    ``incremental=True`` derives it from the move delta
    (:func:`~repro.chaos.remap.patch_remap_schedule`).  Both modes apply
    the *same* ``repartition_stable``-produced distribution, so machine
    state outside the remap phase and every array's contents are
    bit-identical between them.  ``fault_plan`` (a
    :class:`~repro.guard.faults.FaultPlan`) is installed on the machine
    before any work runs, so the remap fault matrix can target both the
    setup redistribution and the per-epoch patched remaps.  Returns
    ``(machine, program, moves_per_epoch)``.
    """
    machine = Machine(n_procs)
    if fault_plan is not None:
        fault_plan.install(machine)
    prog = setup_rebalance_program(machine, mesh, seed=seed, **program_kwargs)
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=sweeps)
    moves_per_epoch = []
    for epoch in range(epochs):
        w = drifting_weights(mesh, epoch, seed=seed)
        dist = prog.decomps["reg"].distribution
        move_g, move_to = rebalance_moves(dist, w, slack=slack)
        moves_per_epoch.append(int(move_g.size))
        if incremental:
            prog.redistribute("reg", moved=(move_g, move_to))
        else:
            new_dist, _ = repartition_stable(dist, move_g, move_to)
            prog.redistribute("reg", new_dist)
        prog.forall(loop, n_times=sweeps)
    return machine, prog, moves_per_epoch
