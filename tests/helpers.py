"""Random-state and random-observable generators for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from eurmem import (
    DensityMatrix,
    ProjectiveObservable,
    bell_diagonal,
    observable_from_basis,
    partial_trace,
    tensor,
)
from eurmem import infoquant
from eurmem.infoquant import IMPROVE_ATOL

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(
    rng: np.random.Generator, dA: int = 2, dB: int = 2, rank: int | None = None
) -> DensityMatrix:
    """Mixed state from the Ginibre (Hilbert-Schmidt) construction."""
    d = dA * dB
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dA, dB)


def hard_x_matrices(rng: np.random.Generator, dB: int, count: int) -> np.ndarray:
    """``count`` X-states near the PSD boundary (Dirichlet(0.3) diagonals,
    coherences at 0.9 to 1 of their largest value), hidden by random local
    unitaries, with B embedded in C^dB by a random isometry for dB > 2: the
    states on which a coarse J_A grid's peaks can miss the optimum."""
    mats = []
    for _ in range(count):
        dd = rng.dirichlet(np.ones(4) * 0.3)
        z = np.sqrt(dd[0] * dd[3]) * rng.uniform(0.9, 1) * np.exp(2j * np.pi * rng.uniform())
        w = np.sqrt(dd[1] * dd[2]) * rng.uniform(0.9, 1) * np.exp(2j * np.pi * rng.uniform())
        m = np.diag(dd).astype(complex)
        m[0, 3], m[3, 0], m[1, 2], m[2, 1] = z, np.conj(z), w, np.conj(w)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        m = u @ m @ u.conj().T
        if dB > 2:
            embed = np.kron(np.eye(2), random_unitary(rng, dB)[:, :2])
            m = embed @ m @ embed.conj().T
        mats.append(m)
    return np.array(mats)


def random_observable(rng: np.random.Generator, d: int = 2) -> ProjectiveObservable:
    return observable_from_basis(random_unitary(rng, d))


def random_projective_pair(rng: np.random.Generator, d: int = 2):
    """Two independent Haar-random bases (no unbiasedness imposed)."""
    return random_observable(rng, d), random_observable(rng, d)


def random_mub_pair(rng: np.random.Generator):
    """A random qubit basis and its Hadamard rotation (all overlaps 1/2)."""
    u = random_unitary(rng, 2)
    return observable_from_basis(u), observable_from_basis(u @ HADAMARD)


def random_bell_diagonal_r(rng: np.random.Generator) -> np.ndarray:
    """Uniform correlation vector inside the Bell-diagonal tetrahedron."""
    while True:
        r = rng.uniform(-1.0, 1.0, size=3)
        signs = np.array(
            [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float
        )
        if np.all(1.0 + signs @ r >= 0.0):
            return r


def random_bell_diagonal(rng: np.random.Generator) -> DensityMatrix:
    return bell_diagonal(random_bell_diagonal_r(rng))


def random_single_qubit_density(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_product_state(rng: np.random.Generator) -> DensityMatrix:
    a = random_single_qubit_density(rng)
    b = random_single_qubit_density(rng)
    return DensityMatrix(np.kron(a, b), 2, 2)


def random_schmidt_coeffs(rng: np.random.Generator, n: int = 2) -> np.ndarray:
    lam = rng.uniform(0.0, 1.0, size=n)
    return lam / lam.sum()


def conditional_blocks(rho: DensityMatrix, obs: ProjectiveObservable) -> list[np.ndarray]:
    """p_i rho^B_i of each outcome, from the explicit projectors P_i (x) I."""
    projectors = [tensor(obs.projector(i), np.eye(rho.dB)) for i in range(obs.d)]
    return [partial_trace(pi @ rho.mat @ pi, (rho.dA, rho.dB), "B") for pi in projectors]


_REF_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dense_reference_j_a(rho: DensityMatrix) -> float:
    """J_A as found by a frozen copy of the library's earlier dense search.

    The best of a 60 x 120 hemisphere grid of Bloch directions seeds a
    compass search on (theta, phi) that tries the four neighbours at the
    current step, moves to the best if it gains more than 1e-9 and halves
    the step otherwise, until the step is below 1e-6.  Each value is the
    Holevo quantity of a real projective measurement on A, so the result
    never exceeds the true J_A.  It uses numpy only, not the library's
    optimizer, so that the optimizer can be tested against it.
    """
    r4 = rho.mat.reshape(2, rho.dB, 2, rho.dB)
    rho_b = np.trace(r4, axis1=0, axis2=2)
    transfer = np.stack([np.einsum("pq,qjpk->jk", s, r4) for s in _REF_PAULIS])

    def xlog2x(x):
        return x * np.log2(np.where(x > 0.0, x, 1.0))

    s_b = -xlog2x(np.clip(np.linalg.eigvalsh(rho_b), 0.0, 1.0)).sum()

    def holevo_at(angles):
        theta, phi = angles[:, 0], angles[:, 1]
        dirs = np.column_stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        w = np.einsum("gi,ijk->gjk", dirs, transfer)
        omegas = np.stack([rho_b + w, rho_b - w]) / 2.0
        if rho.dB == 2:
            # Closed-form 2 x 2 Hermitian eigenvalues: mean -+ half-gap.
            a, d = omegas[..., 0, 0].real, omegas[..., 1, 1].real
            gap = np.hypot(0.5 * (a - d), np.abs(omegas[..., 0, 1]))
            eigs = np.stack([0.5 * (a + d) - gap, 0.5 * (a + d) + gap], axis=-1)
        else:
            eigs = np.linalg.eigvalsh(omegas)
        eigs = np.clip(eigs, 0.0, None)
        probs = eigs.sum(axis=-1)
        cond = np.where(probs < 1e-14, 0.0, xlog2x(probs) - xlog2x(eigs).sum(axis=-1))
        return s_b - cond.sum(axis=0)

    thetas = np.linspace(0.0, np.pi / 2.0, 60)
    phis = np.linspace(0.0, 2.0 * np.pi, 120, endpoint=False)
    grid = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    values = holevo_at(grid)
    best = int(np.argmax(values))
    (theta, phi), value = grid[best], float(values[best])
    step_theta, step_phi = (np.pi / 2.0) / 59, (2.0 * np.pi) / 120
    while max(step_theta, step_phi) >= 1e-6:
        moves = np.array(
            [
                (theta + step_theta, phi),
                (theta - step_theta, phi),
                (theta, phi + step_phi),
                (theta, phi - step_phi),
            ]
        )
        vals = holevo_at(moves)
        k = int(np.argmax(vals))
        if vals[k] > value + 1e-9:
            (theta, phi), value = moves[k], float(vals[k])
        else:
            step_theta, step_phi = 0.5 * step_theta, 0.5 * step_phi
    return max(value, 0.0)


def neighbourhood_cells(i, j, rows, cols):
    """The cells around (i, j) of a hemisphere grid, written out: phi wraps,
    the row above the pole row is itself, and the row beyond the equator is
    the row before it turned by pi."""
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ii, jj = max(i + di, 0), (j + dj) % cols
            if ii == rows:
                ii, jj = rows - 2, (jj + cols // 2) % cols
            yield ii, jj


@lru_cache(maxsize=4)
def _neighbourhood_table(rows, cols):
    """The flat indices (rows * cols, 9) of each cell's ``neighbourhood_cells``."""
    return np.array(
        [np.ravel_multi_index(tuple(zip(*neighbourhood_cells(i, j, rows, cols))), (rows, cols))
         for i in range(rows) for j in range(cols)]
    )


def brute_force_grid_peaks(values: np.ndarray) -> np.ndarray:
    """The reference for ``_grid_peaks`` on one grid: each cell against the
    maximum of its explicit neighbourhood (the pole row's is all of rows 0
    and 1), the pole row and each equator cell with its antipode counted
    once, at the first cell, then the best ``_MAX_STARTS`` maxima, best
    first, ties to the lowest index."""
    rows, cols = values.shape
    half = cols // 2
    highest = values.ravel()[_neighbourhood_table(rows, cols)].max(axis=1).reshape(values.shape)
    highest[0] = values[:2].max()
    peak = values >= highest - IMPROVE_ATOL
    peak[0] = [peak[0].any()] + [False] * (cols - 1)
    peak[-1] = np.r_[peak[-1, :half] | peak[-1, half:], [False] * half]
    cells = sorted(np.flatnonzero(peak).tolist(), key=lambda cell: (-values.flat[cell], cell))
    return np.array(cells[: infoquant._MAX_STARTS])


# ---------------------------------------------------------------------------
# References for the J_A search: two forms of the two-qubit objective, the
# generator form of the trust-region ascent, one ascent at a time, and
# objectives of plain functions on the sphere.
# ---------------------------------------------------------------------------


def sphere_objective(function, derivatives):
    """An ``infoquant._Objective`` of the same function for every row:
    ``function`` maps directions (3, ...) to values (...), and
    ``derivatives`` maps centres (A, 3) to the value (A,), gradient (A, 3)
    and Hessian (A, 3, 3) of the function on R^3.  Its model at a frame
    (n, u, v) is the value, U g and U H U^T - (g.n) I, U = (u, v)."""

    def model(rows, frames):
        frames = np.asarray(frames)
        value, grad, hess = derivatives(frames[:, 0])
        tangents = frames[:, 1:]
        g = (tangents @ grad[..., None])[..., 0]
        h = tangents @ hess @ tangents.swapaxes(-1, -2)
        h -= (grad * frames[:, 0]).sum(axis=-1)[:, None, None] * np.eye(2)
        return np.column_stack([value, g, h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]]).tolist()

    return infoquant._Objective(lambda rows, dirs: function(dirs), model)


def _pauli_quarters(states):
    """q = T / 4 of each row, T_{mu nu} = tr(rho sigma_mu (x) sigma_nu), as
    the kernel computes it: one matrix-vector product per row."""
    products = (infoquant._PAULI_PAIRS @ states.mats.reshape(-1, 16, 1))[..., 0]
    return (0.25 * products.real).reshape(-1, 4, 4)


def kernel_reference_two_qubit_objective(states, s_b):
    """The two-qubit objective in the operation order of
    ``infoquant._two_qubit_objective``, with plain operators for its in-place
    ones: per row, q^T times the columns (1, n) and (1, -n) of every
    direction in one matrix product; then the radius as ((x^2 + y^2) + z^2),
    the eigenvalues and ``infoquant._conditional_sum`` over both outcomes, n
    first."""
    q = _pauli_quarters(states)

    def objective(rows, dirs):
        ones = np.ones_like(dirs[:1])
        signed = np.stack([np.concatenate([ones, dirs]), np.concatenate([ones, -dirs])], axis=-1)
        table = signed.transpose(1, 0, 2, 3).reshape(dirs.shape[1], 4, -1)
        terms = (q[rows].transpose(0, 2, 1) @ table).transpose(1, 0, 2)
        radius = np.sqrt((terms[1:] * terms[1:]).sum(axis=0))
        eigs = np.maximum(np.stack([terms[0] - radius, terms[0] + radius]), 0.0)
        outcomes = eigs.reshape(eigs.shape[:-1] + (-1, 2)).transpose(0, 3, 1, 2)
        return s_b[rows, None] - infoquant._conditional_sum(outcomes)

    return objective


def reference_two_qubit_objective(states, s_b):
    """The two-qubit objective in its earlier form, independent of the
    kernel's matrix product: n.(a, C) as elementwise sums over components,
    the signed terms of both outcomes, and one batch of stacked temporaries."""
    q = _pauli_quarters(states).transpose(1, 2, 0)
    signs = np.array([[[1.0]], [[-1.0]]])

    def objective(rows, dirs):
        table = q[:, :, rows, None]
        lin = (table[1:] * dirs[:, None]).sum(axis=0)
        signed = table[0, :, None] + signs * lin[:, None]
        weight, u = signed[0], signed[1:]
        radius = np.sqrt((u * u).sum(axis=0))
        eigs = np.maximum(np.stack([weight - radius, weight + radius]), 0.0)
        return s_b[rows, None] - infoquant._conditional_sum(eigs)

    return objective


def _reference_frame(x, y, z):
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return (x, y, z), (1.0 + sign * x * x * a, sign * b, -sign * x), (b, sign + y * y * a, -y)


def _reference_ascent(value, direction, radius):
    """One ascent as a coroutine: yields each centre's frame and is sent its
    model (value, g1, g2, a, b, c); returns the start's (value, point), the
    later centre of highest model value above it (None if none rose above
    it), the centre of its last step where that step converged and was not
    modelled (else None) and its number of rounds."""
    frame = _reference_frame(*direction)
    peak = best = (value, np.array(direction))
    _, *model = yield frame
    here_value, rounds, converged, last = value, 1, 0.0, None
    while all(map(math.isfinite, model)):
        s1, s2, gain, boundary = infoquant._trust_step(*model, radius)
        if gain <= 1e-15:
            break
        point = [n + s1 * u + s2 * v for n, u, v in zip(*frame)]
        norm = math.hypot(*point)
        trial = _reference_frame(*(x / norm for x in point))
        # a step of at most 1e-8 and at most ten times the square of the
        # last, a Newton step that met its prediction within 1 %
        if gain <= 1e-8 and gain <= 10.0 * converged * converged:
            last = np.array(trial[0])
            break
        if rounds == infoquant._MAX_ROUNDS:
            break
        trial_value, *trial_model = yield trial
        rounds += 1
        if trial_value > best[0]:
            best = (trial_value, np.array(trial[0]))
        ratio = (trial_value - here_value) / gain
        if ratio >= 0.1:
            if ratio > 0.75 and boundary:
                radius *= 2.0
            converged = 0.0 if boundary or abs(ratio - 1.0) > 0.01 else gain
            frame, here_value, model = trial, trial_value, trial_model
        else:
            radius, converged = 0.25 * math.hypot(s1, s2), 0.0
            if radius < 1e-12:
                break
    return peak, None if best is peak else best[1], last, rounds


def _reference_climb(objective, first_row, ascents):
    """Run the ascents of a block of rows: the starts' models in one call,
    then each ascent to its end, one model call per later centre.  An
    ascent's result is its start's (value, point), or the objective's value
    at its centre of highest model value, then at its unmodelled last
    centre, each taken alone, where that is higher; with its rounds."""
    row_of = {a: first_row + r for r, row in enumerate(ascents) for a in row}
    frames = [next(a) for a in row_of]
    firsts = objective.model(np.array(list(row_of.values())), np.array(frames))
    results = {}
    for ascent, model in zip(row_of, firsts):
        while True:
            try:
                frame = ascent.send(model)
            except StopIteration as stop:
                peak, *points, rounds = stop.value
                for point in points:
                    if point is not None:
                        value = objective.values(np.array([row_of[ascent]]), point[:, None, None])[0, 0]
                        if value > peak[0]:
                            peak = (value, point)
                results[ascent] = peak, rounds
                break
            (model,) = objective.model([row_of[ascent]], [frame])
    return results


def reference_search(objective, count, cfg):
    """``infoquant._search`` with one generator per ascent, each sent its
    centres' models, every grid cell evaluated (the equator's second half
    then takes the values of its antipodes, as the search's does), and each
    row's seeds scored on their own; the same (value, direction, grid
    maximum, rounds) per row."""
    _, dirs = infoquant._hemisphere_grid(cfg.grid_theta, cfg.grid_phi)
    size, half = dirs.shape[1], cfg.grid_phi // 2
    radius = (np.pi / 2.0) / (cfg.grid_theta - 1)
    block = max(1, min(infoquant._CLIMB_ROWS, infoquant._CLIMB_VALUES // size))
    grid_rows = max(1, infoquant._CALL_VALUES // size)
    chunk = min(size, infoquant._CALL_VALUES)
    found = []
    for start in range(0, count, block):
        stop = min(start + block, count)
        values = np.empty((stop - start, size))
        for first in range(start, stop, grid_rows):
            last = min(first + grid_rows, stop)
            for k in range(0, size, chunk):
                values[first - start : last - start, k : k + chunk] = objective.values(
                    slice(first, last), dirs[:, None, k : k + chunk]
                )
        values[:, size - half :] = values[:, size - 2 * half : size - half]
        peaks = infoquant._grid_peaks(values.reshape(-1, cfg.grid_theta, cfg.grid_phi))
        ascents = [
            [_reference_ascent(float(v[k]), dirs[:, k], radius) for k in cells]
            for v, cells in zip(values, peaks)
        ]
        if objective.seeds is not None:
            # each row's best seed, ties to the first, after its grid peaks
            # where it beats the grid
            for row, ascent, grid_best in zip(range(start, stop), ascents, values.max(axis=1).tolist()):
                seeds = objective.seeds(slice(row, row + 1))[:, 0]
                scores = objective.values(slice(row, row + 1), seeds[:, None])[0].tolist()
                k = scores.index(max(scores))
                if scores[k] > grid_best:
                    ascent.append(_reference_ascent(scores[k], seeds[:, k], radius))
        results = _reference_climb(objective, start, ascents)
        for grid_best, row in zip(values.max(axis=1).tolist(), ascents):
            (value, direction), _ = results[row[0]]
            for (later, at), _ in (results[a] for a in row[1:]):
                if later > value + IMPROVE_ATOL:
                    value, direction = later, at
            found.append((value, direction, grid_best, sum(results[a][1] for a in row)))
    return found
