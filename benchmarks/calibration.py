"""Machine-speed probe: frozen kernels timed between the ops.

On a shared machine every op slows down by up to 1.7x while other tenants
load the host, in periods lasting from seconds to minutes, so the plain
latencies of two 20 s runs of the same code can differ by a third.  The
benchmark therefore times frozen kernels next to the ops and reports each
latency scaled by ``scale()``: NOMINAL over the kernel time, averaged over
the kernels with the workload's weights.  That is the latency the op would
have had on a host where the kernels take their NOMINAL times.

The kernels are the two kinds of work the library's ops are made of:
``small`` drives small-matrix numpy calls from Python (partial traces and
spectra of fixed two-qubit states), ``grid`` evaluates the Holevo quantity
of a fixed state over a batch of Bloch directions with the seed commit's
code (``reference.py``).  A workload whose ops run the J_A grid search
weighs the two kernels equally; one that never runs it (``random_bounds``)
is scaled by ``small`` alone, since contention from other tenants can slow
the two kinds of work by different amounts.  Over 10 s and 20 s windows of
recorded ops, the quartile spread of the median latency was 0.05-0.17 of
the median plain, and 0.006-0.034 scaled, on all four workloads.  The
kernels and weights use numpy and ``reference.py`` only, never ``eurmem``,
and must not change: a change to them changes every reported latency.
The NOMINAL times are round numbers near the kernels' times on the 2-vCPU
host the benchmark was built on; they only set the unit.
"""

from __future__ import annotations

import time

import numpy as np

import reference

NOMINAL_SMALL_S = 1.0e-3
NOMINAL_GRID_S = 0.5e-3
_STATES = 16
_GRID_THETA = 24
_GRID_PHI = 48


def _fixed_states():
    rng = np.random.default_rng(20160213)
    return [reference.hilbert_schmidt_state(rng, 2, 2) for _ in range(_STATES)]


def _kernel(states):
    for m in states:
        reference.split(m, 2, 2)
        reference.entropy_b(m, 2, 2)
        np.linalg.eigvalsh(m)


class SpeedProbe:
    """``scale()`` times the kernels and returns the speed factor.

    ``grid_weight`` is the grid kernel's share of the reading; at 0 the grid
    kernel is not run.  Each kernel runs once untimed first, so that the
    timed run does not pay for whatever the op before it left in the caches.
    """

    def __init__(self, grid_weight: float):
        self.grid_weight = grid_weight
        self._states = _fixed_states()
        rho = self._states[0]
        self._rho_b, self._transfer = reference.split(rho, 2, 2)
        self._s_b = reference.entropy_b(rho, 2, 2)
        thetas = np.linspace(0.0, np.pi / 2.0, _GRID_THETA)
        phis = np.linspace(0.0, 2.0 * np.pi, _GRID_PHI, endpoint=False)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        self._angles = np.column_stack([tt.ravel(), pp.ravel()])

    def _small(self):
        _kernel(self._states)

    def _grid(self):
        reference.holevo_angles(self._rho_b, self._transfer, self._s_b, self._angles)

    @staticmethod
    def _time(kernel) -> float:
        """Warm timing (seconds) of one kernel."""
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    def scale(self) -> float:
        slowdown = (1.0 - self.grid_weight) * self._time(self._small) / NOMINAL_SMALL_S
        if self.grid_weight:
            slowdown += self.grid_weight * self._time(self._grid) / NOMINAL_GRID_S
        return 1.0 / slowdown
