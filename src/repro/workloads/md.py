"""Molecular-dynamics workload: a 648-atom water box (216 H2O).

Stands in for the CHARMM electrostatic force loop the paper times: TIP3P-
style charges on a jittered molecular lattice at liquid-water density,
a cutoff-radius pair list, and a Coulomb force sweep whose structure is
exactly loop L2 -- indirect reads of both endpoints' positions/charges
and ADD reductions into per-atom force accumulators at both endpoints.
"""

from __future__ import annotations

import numpy as np

from repro.core.forall import ArrayRef, ForallLoop, Reduce
from repro.core.program import IrregularProgram
from repro.machine.machine import Machine

#: TIP3P partial charges (e)
_Q_O = -0.834
_Q_H = 0.417
#: liquid water: one molecule per ~29.9 cubic Angstroms
_MOLECULE_VOLUME = 29.9
#: O-H bond length (Angstroms) used for the rigid-molecule geometry
_BOND = 0.9572
#: modeled flops per pair interaction (distance, inverse-r^3, accumulate)
MD_PAIR_FLOPS = 30.0


def water_box(n_atoms: int = 648, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Build a water box; returns (coords (3, n_atoms), charges (n_atoms,)).

    ``n_atoms`` must be a multiple of 3 (whole molecules).  Molecules sit
    on a jittered cubic lattice sized for liquid density; each carries an
    O at the lattice site and two randomly oriented H atoms.  Atom order
    is randomized so the array numbering carries no spatial locality.
    """
    if n_atoms % 3:
        raise ValueError(f"n_atoms must be a multiple of 3, got {n_atoms}")
    n_mol = n_atoms // 3
    rng = np.random.default_rng(seed)
    side = (n_mol * _MOLECULE_VOLUME) ** (1.0 / 3.0)
    cells = int(np.ceil(n_mol ** (1.0 / 3.0)))
    spacing = side / cells
    sites = []
    for ix in range(cells):
        for iy in range(cells):
            for iz in range(cells):
                sites.append((ix + 0.5, iy + 0.5, iz + 0.5))
                if len(sites) == n_mol:
                    break
            if len(sites) == n_mol:
                break
        if len(sites) == n_mol:
            break
    oxygen = np.asarray(sites) * spacing
    oxygen += rng.uniform(-0.12, 0.12, size=oxygen.shape) * spacing

    coords = np.empty((n_atoms, 3))
    charges = np.empty(n_atoms)
    h_dirs = rng.normal(size=(n_mol, 2, 3))
    h_dirs /= np.linalg.norm(h_dirs, axis=2, keepdims=True)
    for m in range(n_mol):
        coords[3 * m] = oxygen[m]
        charges[3 * m] = _Q_O
        coords[3 * m + 1] = oxygen[m] + _BOND * h_dirs[m, 0]
        coords[3 * m + 2] = oxygen[m] + _BOND * h_dirs[m, 1]
        charges[3 * m + 1] = charges[3 * m + 2] = _Q_H

    perm = rng.permutation(n_atoms)
    return coords[perm].T.copy(), charges[perm].copy()


def pair_list(coords: np.ndarray, cutoff: float = 8.0) -> np.ndarray:
    """Unique atom pairs within ``cutoff`` Angstroms, as a (2, P) array."""
    if coords.ndim != 2 or coords.shape[0] != 3:
        raise ValueError(f"coords must have shape (3, N), got {coords.shape}")
    from scipy.spatial import cKDTree

    tree = cKDTree(coords.T)
    pairs = tree.query_pairs(cutoff, output_type="ndarray")
    if pairs.size == 0:
        return np.empty((2, 0), dtype=np.int64)
    return np.sort(pairs.astype(np.int64), axis=1).T.copy()


def _coulomb_p1(q1, q2, x1, y1, z1, x2, y2, z2):
    """x-component of the Coulomb force on endpoint 1."""
    dx, dy, dz = x1 - x2, y1 - y2, z1 - z2
    r2 = dx * dx + dy * dy + dz * dz
    inv_r3 = 1.0 / np.maximum(r2, 1e-12) ** 1.5
    return q1 * q2 * dx * inv_r3


def _coulomb_p2(q1, q2, x1, y1, z1, x2, y2, z2):
    """x-component of the Coulomb force on endpoint 2 (Newton's third law)."""
    return -_coulomb_p1(q1, q2, x1, y1, z1, x2, y2, z2)


def md_force_loop(n_pairs: int) -> ForallLoop:
    """The electrostatic force sweep over the pair list (loop L2 shape).

    Reads positions and charges of both endpoints through the pair-list
    indirection arrays ``p1``/``p2``; REDUCE(ADD)s the x-force into
    ``fx`` at both endpoints.  (One Cartesian component suffices to
    exercise the full communication pattern; the modeled flop count
    covers all three.)
    """
    # order: q(p1), q(p2), rx(p1), ry(p1), rz(p1), rx(p2), ry(p2), rz(p2)
    reads = (
        ArrayRef("q", "p1"),
        ArrayRef("q", "p2"),
        ArrayRef("rx", "p1"),
        ArrayRef("ry", "p1"),
        ArrayRef("rz", "p1"),
        ArrayRef("rx", "p2"),
        ArrayRef("ry", "p2"),
        ArrayRef("rz", "p2"),
    )
    return ForallLoop(
        "md_force_sweep",
        n_pairs,
        [
            Reduce("add", ArrayRef("fx", "p1"), _coulomb_p1, reads, flops=MD_PAIR_FLOPS),
            Reduce("add", ArrayRef("fx", "p2"), _coulomb_p2, reads, flops=MD_PAIR_FLOPS),
        ],
    )


def setup_md_program(
    machine: Machine,
    n_atoms: int = 648,
    cutoff: float = 8.0,
    seed: int = 0,
    **program_kwargs,
) -> tuple[IrregularProgram, np.ndarray]:
    """Declare the MD program state; returns (program, pair array).

    Decomposition ``atoms`` holds per-atom arrays (positions ``rx``/
    ``ry``/``rz``, charges ``q``, force ``fx``); decomposition ``pairs``
    holds the pair-list indirection arrays ``p1``/``p2``.
    """
    coords, charges = water_box(n_atoms, seed)
    pairs = pair_list(coords, cutoff)
    prog = IrregularProgram(machine, **program_kwargs)
    prog.decomposition("atoms", n_atoms)
    prog.decomposition("pairs", pairs.shape[1])
    prog.distribute("atoms", "block")
    prog.distribute("pairs", "block")
    prog.array("rx", "atoms", values=coords[0])
    prog.array("ry", "atoms", values=coords[1])
    prog.array("rz", "atoms", values=coords[2])
    prog.array("q", "atoms", values=charges)
    prog.array("fx", "atoms", values=np.zeros(n_atoms))
    prog.array("p1", "pairs", values=pairs[0], dtype=np.int64)
    prog.array("p2", "pairs", values=pairs[1], dtype=np.int64)
    return prog, pairs


def md_sequential_reference(
    coords: np.ndarray, charges: np.ndarray, pairs: np.ndarray, n_times: int = 1
) -> np.ndarray:
    """Plain-NumPy reference for the x-force accumulation."""
    fx = np.zeros(coords.shape[1])
    p1, p2 = pairs
    args = (
        charges[p1],
        charges[p2],
        coords[0][p1],
        coords[1][p1],
        coords[2][p1],
        coords[0][p2],
        coords[1][p2],
        coords[2][p2],
    )
    for _ in range(n_times):
        np.add.at(fx, p1, _coulomb_p1(*args))
        np.add.at(fx, p2, _coulomb_p2(*args))
    return fx
