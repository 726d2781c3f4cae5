"""The four step-driven workloads and the rep that drives them.

Every workload has the same closed-loop shape (one process, one
thread): a **rep** builds a fresh ``Machine`` and a fresh program, lays
the data out (``construct`` G by GEOMETRY, ``set_distribution`` RCB,
``redistribute``), runs step 0 (cold inspection + one sweep) and then
``steps`` identical steps (``[mutation]`` + one sweep).  Inputs -- mesh,
state vector, refinement stream, rebalance move lists, NumPy reference
-- are made once per process from the seed; the program only ever sees
the generated arrays.

Why these four (each stresses layers the others bypass; README.md has
the full table):

* ``reinspect_warm``  -- every step re-inspects an unchanged pattern:
  translation-cache hits + charge replay, inspector, adapt state build.
* ``compiled_reuse``  -- directive source through ``repro.lang``, then
  pure schedule reuse: executor, gather/scatter, exchange, kernels.
  The inspector runs once; inspector/adapt optimisations predict "no
  change" here.
* ``adapt_patch``     -- 5 % edge churn per step: tracked writes, diff,
  ``patch_product``, post-patch verification, checkpoint writes.
* ``rebalance_remap`` -- a load-balancer move list per step voids every
  saved product: table rebuild, cold localize (cache miss), iteration
  re-partition, incremental remap.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
import zlib

import numpy as np

from repro.adapt import AdaptiveExecutor
from repro.core.forall import ForallLoop
from repro.core.program import IrregularProgram
from repro.lang import CompiledProgram, lower_forall
from repro.lang.ast_nodes import DoStmt
from repro.machine.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.obs import NULL_TRACER
from repro.partitioners.metrics import edge_cut, load_imbalance
from repro.workloads.adaptive import apply_adaptation, build_refinement_schedule
from repro.workloads.euler import euler_flux_loop_statements, euler_sequential_reference
from repro.workloads.rebalance import drifting_weights, rebalance_moves

from perf_spans import KERNEL_SPAN, ROOT_SPAN, STEP_SPAN, timed

#: mesh nodes and per-workload processor counts at each scale; ``tiny``
#: exists for the tier-1 smoke test and is never comparable with ``full``
SCALES = {
    "full": {
        "n_nodes": 50_000,
        "procs": {
            "reinspect_warm": 256,
            "compiled_reuse": 64,
            "adapt_patch": 64,
            "rebalance_remap": 64,
        },
    },
    "tiny": {
        "n_nodes": 2_000,
        "procs": dict.fromkeys(
            ("reinspect_warm", "compiled_reuse", "adapt_patch", "rebalance_remap"), 8
        ),
    },
}

#: the paper's Figure 5 program (implicit mapping via geometry, RCB); the
#: zero-trip DO makes ``run()`` stop after the layout so the benchmark
#: can drive the FORALL one step at a time
FIGURE5_SOURCE = """
      REAL*8 x(nnode), y(nnode), xc(nnode), yc(nnode), zc(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
      DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
      DISTRIBUTE reg(BLOCK), reg2(BLOCK)
      ALIGN x, y, xc, yc, zc WITH reg
      ALIGN end_pt1, end_pt2 WITH reg2
C$    CONSTRUCT G (nnode, GEOMETRY(3, xc, yc, zc))
C$    SET distfmt BY PARTITIONING G USING RCB
C$    REDISTRIBUTE reg(distfmt)
      DO t = 1, 0
        FORALL i = 1, nedge
          REDUCE (ADD, y(end_pt1(i)), 0.5 * (x(end_pt1(i)) * x(end_pt1(i)) - x(end_pt2(i)) * x(end_pt2(i))) + 0.1 * (x(end_pt2(i)) - x(end_pt1(i))))
          REDUCE (ADD, y(end_pt2(i)), 0.5 * (x(end_pt2(i)) * x(end_pt2(i)) - x(end_pt1(i)) * x(end_pt1(i))) + 0.1 * (x(end_pt1(i)) - x(end_pt2(i))))
        END FORALL
      END DO
"""

COORD_NAMES = ("xc", "yc", "zc")


def derive_seeds(seed: int) -> dict[str, int]:
    """Mesh, data, refinement and drift seeds, all a function of ``seed``."""
    children = np.random.SeedSequence(seed).spawn(3)
    data, refine, drift = (int(c.generate_state(1)[0]) for c in children)
    return {"mesh": int(seed), "data": data, "refine": refine, "drift": drift}


def with_kernels_wrapped(loop: ForallLoop, wrap) -> ForallLoop:
    """``loop`` with every statement's RHS callable passed through ``wrap``."""
    return ForallLoop(
        loop.name,
        loop.n_iterations,
        [dataclasses.replace(s, func=wrap(s.func)) for s in loop.statements],
    )


class Workload:
    """One workload: inputs made once, a fresh program per rep."""

    name: str
    steps: int  # K, the timed steps after step 0
    program_kwargs: dict = {}
    y_name = "y"
    fmt_name = "distfmt"
    checkpoint_bytes = 0

    def __init__(self, scale: str, scratch_dir: str):
        self.n_procs = SCALES[scale]["procs"][self.name]
        self.scratch_dir = scratch_dir

    def prepare(self, mesh, seeds: dict[str, int]) -> None:
        """Set-up: make every input and the NumPy reference result."""
        self.mesh = mesh
        self.seeds = seeds
        self.x = np.random.default_rng(seeds["data"]).normal(size=mesh.n_nodes)
        self.reference = self._reference()

    def _reference(self) -> np.ndarray:
        # x and the edges never change, so every sweep adds the same
        # increment to y: K+1 sweeps = (K+1) x one sweep, up to rounding
        return (self.steps + 1) * euler_sequential_reference(self.x, self.mesh.edges)

    # -- one rep --------------------------------------------------------
    def start(self, wrap):
        """Fresh machine + program, layout, step 0; returns the program."""
        prog = self._declare()
        prog.construct("G", self.mesh.n_nodes, geometry=list(COORD_NAMES))
        prog.set_distribution(self.fmt_name, "G", "RCB")
        prog.redistribute("reg", self.fmt_name)
        self.loop = with_kernels_wrapped(
            ForallLoop(
                "euler_edge_sweep", self.mesh.n_edges, euler_flux_loop_statements()
            ),
            wrap,
        )
        self._after_layout(prog)
        self.step(prog, 0)
        return prog

    def _declare(self) -> IrregularProgram:
        mesh = self.mesh
        prog = IrregularProgram(Machine(self.n_procs), **self.program_kwargs)
        prog.decomposition("reg", mesh.n_nodes)
        prog.decomposition("reg2", mesh.n_edges)
        prog.distribute("reg", "block")
        prog.distribute("reg2", "block")
        prog.array("x", "reg", values=self.x)
        prog.array("y", "reg", values=np.zeros(mesh.n_nodes))
        prog.array("end_pt1", "reg2", values=mesh.edges[0], dtype=np.int64)
        prog.array("end_pt2", "reg2", values=mesh.edges[1], dtype=np.int64)
        for d, cname in enumerate(COORD_NAMES):
            prog.array(cname, "reg", values=mesh.coords[d])
        return prog

    def _after_layout(self, prog) -> None:
        pass

    def step(self, prog, k: int) -> None:
        raise NotImplementedError

    def failure(self, prog) -> str | None:
        """Workload-specific reason the finished rep must count as failed."""
        return None


class ReinspectWarm(Workload):
    name = "reinspect_warm"
    steps = 20
    program_kwargs = {"incremental": True}

    def step(self, prog, k):
        prog.forall(self.loop, 1, reuse=False)


class CompiledReuse(Workload):
    name = "compiled_reuse"
    steps = 80
    y_name = "Y"
    fmt_name = "DISTFMT"

    def start(self, wrap):
        mesh = self.mesh
        data = {"X": self.x, "END_PT1": mesh.edges[0], "END_PT2": mesh.edges[1]}
        data.update({n.upper(): mesh.coords[d] for d, n in enumerate(COORD_NAMES)})
        cp = CompiledProgram(
            FIGURE5_SOURCE,
            Machine(self.n_procs),
            sizes={"NNODE": mesh.n_nodes, "NEDGE": mesh.n_edges},
            data=data,
        ).run()
        do = next(s for s in cp.ast.statements if isinstance(s, DoStmt))
        self.loop = with_kernels_wrapped(
            lower_forall(do.body[0], cp.sizes, cp.scalars), wrap
        )
        self.step(cp.program, 0)
        return cp.program

    def step(self, prog, k):
        prog.forall(self.loop, 1)


class AdaptPatch(Workload):
    name = "adapt_patch"
    steps = 10
    churn = 0.05
    program_kwargs = {"incremental": True, "guard": "cheap"}

    def prepare(self, mesh, seeds):
        self.checkpoint_path = os.path.join(self.scratch_dir, "adapt_patch.ckpt")
        self.schedule = build_refinement_schedule(
            mesh, self.churn, self.steps, seed=seeds["refine"]
        )
        super().prepare(mesh, seeds)

    def _reference(self):
        y = euler_sequential_reference(self.x, self.mesh.edges)
        for edges in self.schedule.edges_per_epoch:
            y = euler_sequential_reference(self.x, edges, y0=y)
        return y

    def _after_layout(self, prog):
        self.exe = AdaptiveExecutor(prog, self.loop)

    def step(self, prog, k):
        if k:
            apply_adaptation(prog, self.schedule.updates[k - 1])
        self.exe.step()
        if k and k % (self.steps // 2) == 0:
            self.exe.checkpoint(self.checkpoint_path)
            self.checkpoint_bytes = os.path.getsize(self.checkpoint_path)
            # deleted at once (~2 ms): a second 48 MB file written while
            # the first is still dirty in the page cache gets throttled
            # by the kernel for 0.3-0.5 s (measured; 15 ms when alone),
            # which is writeback policy, not runtime work
            os.remove(self.checkpoint_path)

    def failure(self, prog):
        bad = [r for r in prog.adapt.fallback_log if r["stage"] in ("patch", "verify")]
        return f"patch fell back: {bad[0]}" if bad else None


class RebalanceRemap(Workload):
    name = "rebalance_remap"
    steps = 6
    program_kwargs = {"incremental": True}

    def prepare(self, mesh, seeds):
        #: per-step (gidx, to_proc) move lists; a pure function of the
        #: seed, recorded by the first (untimed warm-up) rep so the
        #: greedy balancer's Python loop never runs inside a timed step
        self.moves: list[tuple[np.ndarray, np.ndarray]] = []
        super().prepare(mesh, seeds)

    def step(self, prog, k):
        if k:
            if len(self.moves) < k:
                weights = drifting_weights(self.mesh, k - 1, seed=self.seeds["drift"])
                self.moves.append(
                    rebalance_moves(prog.decomps["reg"].distribution, weights)
                )
            prog.redistribute("reg", moved=self.moves[k - 1])
        prog.forall(self.loop, 1)


WORKLOADS = {
    w.name: w for w in (ReinspectWarm, CompiledReuse, AdaptPatch, RebalanceRemap)
}


# ----------------------------------------------------------------------
# one rep
# ----------------------------------------------------------------------
def fingerprint(prog, y: np.ndarray) -> list:
    """(simulated total, CRC of every machine counter array, CRC of y):
    must be identical in every rep, traced or not."""
    counters = prog.machine.counters
    return [
        prog.machine.elapsed(),
        [zlib.crc32(getattr(counters, f).tobytes()) for f in COUNTER_FIELDS],
        zlib.crc32(y.tobytes()),
    ]


def run_rep(wl: Workload, tracer=NULL_TRACER) -> dict:
    """One rep; with a real ``tracer`` the whole rep runs under ``ROOT_SPAN``,
    each step (0 = declare + layout + cold step) under a ``STEP_SPAN``,
    and the loop kernels are wrapped in ``KERNEL_SPAN`` spans."""
    wrap = (lambda f: timed(f, KERNEL_SPAN, tracer)) if tracer.enabled else (lambda f: f)
    rep = {"steps_s": [], "error": None}
    try:
        with tracer.span(ROOT_SPAN):
            t0 = time.perf_counter()
            with tracer.span(STEP_SPAN, k=0):
                prog = wl.start(wrap)
            t_prev = time.perf_counter()
            rep["cold_start_s"] = t_prev - t0
            for k in range(1, wl.steps + 1):
                with tracer.span(STEP_SPAN, k=k):
                    wl.step(prog, k)
                t_now = time.perf_counter()
                rep["steps_s"].append(t_now - t_prev)
                t_prev = t_now
            rep["wall_s"] = t_prev - t0
    except Exception:  # rep boundary: a raising rep fails all its steps
        rep["error"] = traceback.format_exc()
        return rep
    # result check, outside the timed region
    y = prog.arrays[wl.y_name].to_global()
    rep["sim_total_s"] = prog.machine.elapsed()
    rep["fingerprint"] = fingerprint(prog, y)
    if not np.allclose(y, wl.reference):
        rep["error"] = "final y differs from the NumPy reference"
    else:
        rep["error"] = wl.failure(prog)
    if tracer.enabled:
        rep["counts"] = public_counts(wl, prog)
    return rep


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def public_counts(wl: Workload, prog) -> dict[str, float]:
    """Per-rep counts read from the runtime's public attributes."""
    machine = prog.machine
    cache = prog.translation_cache.stats()
    fallbacks = len(prog.adapt.fallback_log) if prog.adapt is not None else 0
    owners = prog.distfmts[wl.fmt_name].owner_map()
    inspections = prog.inspector_runs + prog.reuse_hits + prog.patch_hits
    return {
        "machine.sim_messages": int(machine.counters.messages_sent.sum()),
        "machine.sim_bytes": int(machine.counters.bytes_sent.sum()),
        "partitioners.edge_cut": edge_cut(wl.mesh.edges, owners),
        "partitioners.load_imbalance": load_imbalance(owners, machine.n_procs),
        "chaos.transcache_hits": cache["hits"],
        "chaos.transcache_misses": cache["misses"],
        "chaos.transcache_hit_ratio": _ratio(
            cache["hits"], cache["hits"] + cache["misses"]
        ),
        "core.inspector_runs": prog.inspector_runs,
        "core.reuse_hits": prog.reuse_hits,
        "core.reuse_hit_ratio": _ratio(prog.reuse_hits, inspections),
        "core.sim_graph_s": machine.phase_time("graph_generation"),
        "core.sim_partition_s": machine.phase_time("partition"),
        "core.sim_remap_s": machine.phase_time("remap"),
        "core.sim_inspector_s": machine.phase_time("inspector"),
        "core.sim_executor_s": machine.phase_time("executor"),
        "adapt.patch_hits": prog.patch_hits,
        "adapt.fallbacks": fallbacks,
        "adapt.patch_ratio": _ratio(prog.patch_hits, prog.patch_hits + fallbacks),
        "guard.checkpoint_bytes": wl.checkpoint_bytes,
    }
