"""Reference values for the J_A checks, computed without calling ``eurmem``.

``classical_correlation_seed`` is a frozen copy of the J_A search that the
library used when this benchmark was written: a 60 x 120 hemisphere grid
of Bloch directions, then a compass search on (theta, phi) whose step
halves until it is below 1e-6, accepting only gains above 1e-9.  Every
value it returns is the Holevo quantity of a real measurement, so it never
exceeds the true J_A.  The benchmark requires the library to reach it
within 1e-9 on the seeded corpus, whatever the seed: an optimizer that is
faster but falls short fails, and a better one passes.

The grid is evaluated in chunks of GRID_CHUNK directions.  Each direction's
value does not depend on the chunking, so the result is the same as for one
batch; the chunks only keep this search's memory below the library's, so
that the workload process's peak resident memory is the library's.
"""

from __future__ import annotations

import numpy as np

GRID_THETA = 60
GRID_PHI = 120
REFINE_TOL = 1e-6
IMPROVE_ATOL = 1e-9
ZERO_PROB = 1e-14
GRID_CHUNK = 240

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _xlog2x(x):
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log2(safe), 0.0)


def hilbert_schmidt_state(rng, dA, dB):
    """A Hilbert-Schmidt random density matrix on C^dA (x) C^dB."""
    d = dA * dB
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def split(mat, dA, dB):
    """rho^B and T_i = Tr_A[(sigma_i (x) I) rho] for a qubit A."""
    if dA != 2:
        raise ValueError("the reference search handles a qubit A only")
    r4 = np.asarray(mat, dtype=complex).reshape(2, dB, 2, dB)
    rho_b = np.trace(r4, axis1=0, axis2=2)
    transfer = np.stack([np.einsum("pq,qjpk->jk", s, r4) for s in PAULIS])
    return rho_b, transfer


def entropy_b(mat, dA, dB) -> float:
    """S(rho^B) in bits."""
    rho_b, _ = split(mat, dA, dB)
    w = np.clip(np.linalg.eigvalsh(0.5 * (rho_b + rho_b.conj().T)), 0.0, 1.0)
    return float(-np.sum(_xlog2x(w)))


def _eigvalsh(mats):
    if mats.shape[-1] == 2:
        a = mats[..., 0, 0].real
        d = mats[..., 1, 1].real
        half_gap = np.hypot(0.5 * (a - d), np.abs(mats[..., 0, 1]))
        mean = 0.5 * (a + d)
        return np.stack([mean - half_gap, mean + half_gap], axis=-1)
    return np.linalg.eigvalsh(mats)


def holevo_angles(rho_b, transfer, s_b, angles):
    st = np.sin(angles[:, 0])
    dirs = np.column_stack([st * np.cos(angles[:, 1]), st * np.sin(angles[:, 1]), np.cos(angles[:, 0])])
    w = np.einsum("gi,ijk->gjk", dirs, transfer)
    omegas = np.concatenate([(rho_b[None] + w) * 0.5, (rho_b[None] - w) * 0.5])
    eigs = np.clip(_eigvalsh(omegas), 0.0, None)
    probs = eigs.sum(axis=-1)
    cond = _xlog2x(probs) - _xlog2x(eigs).sum(axis=-1)
    cond = np.where(probs < ZERO_PROB, 0.0, cond)
    g = dirs.shape[0]
    return s_b - (cond[:g] + cond[g:])


def classical_correlation_seed(mat, dA, dB) -> float:
    """J_A as the frozen seed search finds it (a lower bound on the true J_A)."""
    rho_b, transfer = split(mat, dA, dB)
    s_b = entropy_b(mat, dA, dB)
    thetas = np.linspace(0.0, np.pi / 2.0, GRID_THETA)
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_PHI, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    angles = np.column_stack([tt.ravel(), pp.ravel()])
    values = np.concatenate(
        [holevo_angles(rho_b, transfer, s_b, angles[i : i + GRID_CHUNK]) for i in range(0, len(angles), GRID_CHUNK)]
    )
    best = int(np.argmax(values))
    theta, phi = (float(a) for a in angles[best])
    f_cur = float(values[best])
    step_theta = (np.pi / 2.0) / (GRID_THETA - 1)
    step_phi = (2.0 * np.pi) / GRID_PHI
    while max(step_theta, step_phi) >= REFINE_TOL:
        cand = np.array(
            [[theta + step_theta, phi], [theta - step_theta, phi], [theta, phi + step_phi], [theta, phi - step_phi]]
        )
        vals = holevo_angles(rho_b, transfer, s_b, cand)
        k = int(np.argmax(vals))
        if float(vals[k]) > f_cur + IMPROVE_ATOL:
            theta, phi = (float(a) for a in cand[k])
            f_cur = float(vals[k])
        else:
            step_theta *= 0.5
            step_phi *= 0.5
    return max(f_cur, 0.0)
