"""Reading message traffic off the machine's one choke point.

Every exchange -- a one-shot ``exchange``, a replayed charge tape, a
schedule-held plan -- is charged through ``Machine.charge_exchange``
with an :class:`~repro.machine.machine.ExchangeCharge` that holds the
``(src, dst, nbytes)`` triple it was planned from, so a stdlib spy on
that one method sees every message::

    with spy_exchanges(machine) as spy:
        ... run runtime operations ...
    src, dst, nbytes = messages(spy)
"""

from unittest import mock

import numpy as np


def spy_exchanges(machine):
    """Patch ``machine.charge_exchange`` with a Mock that wraps it."""
    return mock.patch.object(
        machine, "charge_exchange", wraps=machine.charge_exchange
    )


def charges(spy) -> list:
    """Every ``ExchangeCharge`` the spy saw, in charge order."""
    return [call.args[0] for call in spy.call_args_list]


def messages(spy):
    """Cross-processor ``(src, dst, nbytes)`` of every spied charge, in
    charge order (self copies are memory traffic, not messages)."""
    src, dst, nbytes = (
        np.concatenate(
            [getattr(c, name) for c in charges(spy)] or [np.empty(0, np.int64)]
        )
        for name in ("src", "dst", "nbytes")
    )
    cross = src != dst
    return src[cross], dst[cross], nbytes[cross]


def byte_matrix(spy, n_procs: int) -> np.ndarray:
    """``matrix[s, d]`` = bytes sent from ``s`` to ``d`` over all charges."""
    src, dst, nbytes = messages(spy)
    matrix = np.zeros((n_procs, n_procs), dtype=np.int64)
    np.add.at(matrix, (src, dst), nbytes)
    return matrix
