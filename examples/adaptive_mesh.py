#!/usr/bin/env python
"""Adaptive mesh: incremental inspection vs. re-inspection at adaptations.

Adaptive CFD codes -- a core CHAOS use case -- change mesh connectivity
every few dozen timesteps.  Between adaptations the edge list is fixed
and inspector results are reused; at each adaptation a few percent of
the edges are locally re-targeted (``repro.workloads.adaptive``).  The
conservative runtime record notices the writes, and:

* a plain program re-runs the **full inspector** at every adaptation;
* an ``incremental=True`` program **diffs** the edge arrays against the
  values its saved product was built from and **patches** the saved
  schedules and ghost regions -- same results, a fraction of the
  inspector cost.

Both paths are validated against the sequential reference sweep.

    python examples/adaptive_mesh.py
"""

import numpy as np

from repro import AdaptiveExecutor
from repro.machine import Machine
from repro.workloads import (
    apply_adaptation,
    build_refinement_schedule,
    generate_mesh,
)
from repro.workloads.euler import (
    euler_edge_loop,
    euler_sequential_reference,
    setup_euler_program,
)


def build_program(mesh, incremental):
    machine = Machine(8)
    prog = setup_euler_program(machine, mesh, seed=21, incremental=incremental)
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return machine, prog


def run(mesh, schedule, incremental, epochs, sweeps_per_epoch):
    machine, prog = build_program(mesh, incremental)
    loop = euler_edge_loop(mesh)
    driver = AdaptiveExecutor(prog, loop)
    x = prog.arrays["x"].to_global()
    want = np.zeros(mesh.n_nodes)
    for epoch in range(epochs):
        if epoch > 0:
            apply_adaptation(prog, schedule.updates[epoch - 1])
        driver.run(sweeps_per_epoch)
        edges = mesh.edges if epoch == 0 else schedule.edges_per_epoch[epoch - 1]
        want = euler_sequential_reference(x, edges, n_times=sweeps_per_epoch, y0=want)
    assert np.allclose(prog.arrays["y"].to_global(), want)
    return machine, prog, driver


def main(epochs=5, sweeps_per_epoch=20, fraction=0.05):
    mesh = generate_mesh(1200, seed=21)
    schedule = build_refinement_schedule(mesh, fraction, epochs - 1, seed=7)

    m_full, prog_full, drv_full = run(mesh, schedule, False, epochs, sweeps_per_epoch)
    print(
        f"conservative reuse: {prog_full.inspector_runs} full inspections "
        f"({drv_full.mode_counts()}), "
        f"inspector {m_full.phase_time('inspector'):.3f}s simulated"
    )

    m_inc, prog_inc, drv_inc = run(mesh, schedule, True, epochs, sweeps_per_epoch)
    print(
        f"incremental:        {prog_inc.inspector_runs} full inspection + "
        f"{prog_inc.patch_hits} patches ({drv_inc.mode_counts()}), "
        f"inspector {m_inc.phase_time('inspector'):.3f}s simulated"
    )
    assert prog_inc.inspector_runs == 1
    assert prog_inc.patch_hits == epochs - 1

    t_full = drv_full.inspector_time("full") / max(prog_full.inspector_runs, 1)
    t_patch = drv_inc.inspector_time("patch") / max(prog_inc.patch_hits, 1)
    print(
        f"\nper-adaptation inspector cost: full {t_full:.4f}s vs "
        f"patch {t_patch:.4f}s simulated ({t_full / t_patch:.1f}x)"
    )
    print(
        f"end-to-end simulated time: {m_full.elapsed():.2f}s -> "
        f"{m_inc.elapsed():.2f}s"
    )


if __name__ == "__main__":
    main()
