"""The reduction operators the paper's FORALL/REDUCE construct allows
("addition, accumulation, max, min, etc.").

Schedules are applied by :class:`~repro.chaos.schedule.CommSchedule`'s
own ``gather`` / ``scatter`` / ``scatter_op``; this registry maps a
REDUCE statement's operator name to the ufunc ``scatter_op`` combines
with.
"""

from __future__ import annotations

import numpy as np

#: Reduction operators permitted in REDUCE statements, by Fortran-ish name.
REDUCTION_OPS = {
    "add": np.add,
    "multiply": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}
