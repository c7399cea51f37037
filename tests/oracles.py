"""Reference implementations the tests compare the package against."""

import numpy as np

from h2xr.asymptotics import ProductPoint
from h2xr.errors import DomainError
from h2xr.geodesics import Trajectory
from h2xr.hyperbolic import HYPERBOLIC_TRACE_MARGIN, MobiusElement, translation_length
from h2xr.invariants import DEDUP_TOL, MAX_WORD_LENGTH, LengthEntry, _positive, mls_length
from h2xr.jacobi import _anchor_index, _half_grid_rperp, _march, _pair_rhs
from h2xr.metrics import (ChartPoint, MetricSpec, christoffel_many, curvature_tensor_many,
                          metric_many)


def riccati_from_jacobi(traj: Trajectory, T_anchor: float):
    """U = A' A^{-1} from the anchored Jacobi solution A(T) = I, A'(T) = 0.

    This linear route reproduces the zero-anchored Riccati solution
    exactly (U(T) = A'(T) A(T)^{-1} = 0 and both satisfy the same flow),
    so it serves as an independent check on the nonlinear integration.
    Entries where A is close to singular are returned as nan.
    """
    k = _anchor_index(traj, T_anchor)
    y = np.zeros((2, 1, 2, 2))
    y[0] = np.eye(2)
    A, Ap = _march(traj.times, _half_grid_rperp(traj)[None], y, k, 0, _pair_rhs)
    A, Ap = A[0, : k + 1], Ap[0, : k + 1]
    dets = np.linalg.det(A)
    U = np.full_like(A, np.nan)
    ok = np.abs(dets) > 1e-12
    U[ok] = Ap[ok] @ np.linalg.inv(A[ok])
    return traj.times[: k + 1].copy(), U


def bianchi_residual(r4: np.ndarray) -> float:
    """Max first-Bianchi residual of a lowered curvature tensor."""
    # cyclic sum over the first three slots of Rm; Rm(i,j,k,l) = R4[i,j,l,k]
    rm = np.swapaxes(r4, -2, -1)
    cyc = rm + np.moveaxis(rm, (-4, -3, -2), (-2, -4, -3)) + np.moveaxis(
        rm, (-4, -3, -2), (-3, -2, -4)
    )
    return float(np.max(np.abs(cyc)))


def curvature_at_full_metric(spec: MetricSpec, p: ChartPoint):
    """(R4, sectionals, Ricci) at p through the full 3 x 3 metric.

    The metric comes from metric_many, its inverse from np.linalg.inv, the
    sectional denominators are g_ii g_jj - g_ij^2 and Ricci contracts both
    inverse-metric indices: the general route that curvature_at shortens
    with the diagonal metric.
    """
    q = p.as_array()[None, :]
    r4 = curvature_tensor_many(spec, q)[0]
    g = metric_many(spec, q)[0]
    sectionals = {(i, j): float(r4[i, j, i, j] / (g[i, i] * g[j, j] - g[i, j] ** 2))
                  for i, j in ((0, 1), (0, 2), (1, 2))}
    return r4, sectionals, np.einsum("il,ijlk->jk", np.linalg.inv(g), r4)


def busemann_hessian_christoffel(L: float, x: ProductPoint) -> np.ndarray:
    """Hessian 0 - Gamma^k_ij d_k b of the Busemann limit b = -L t, from christoffel_many."""
    grad = np.array([0.0, 0.0, -L])
    gam = christoffel_many(MetricSpec.product(L), x.chart().as_array()[None, :])[0]
    return 0.0 - np.einsum("kij,k->ij", gam, grad)


def length_spectrum_by_word_list(generators, max_word: int, L: float, n_max: int):
    """enumerate_length_spectrum the long way round.

    Every reduced word is listed and sorted by (length, word), multiplied
    out from its first letter, and its (|trace|, n) keys are checked
    against every key kept so far.
    """
    if not (0 <= max_word <= MAX_WORD_LENGTH):
        raise DomainError(f"max_word must be in [0, {MAX_WORD_LENGTH}], got {max_word}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    _positive("fiber length", L)
    mats = [g if isinstance(g, MobiusElement) else MobiusElement(*g) for g in generators]
    symbols = [x for m in mats for x in (m, m.inverse())]

    words, stack = [], [()]
    while stack:
        word = stack.pop()
        if word:
            words.append(word)
        if len(word) < max_word:
            stack += [word + (s,) for s in range(len(symbols)) if not (word and word[-1] == s ^ 1)]
    words.sort(key=lambda w: (len(w), w))

    entries, seen = [], []

    def accept(tr, n) -> bool:
        if any(n0 == n and abs(tr0 - tr) <= DEDUP_TOL for tr0, n0 in seen):
            return False
        seen.append((tr, n))
        return True

    for n in range(-n_max, n_max + 1):
        if n != 0 and accept(2.0, n):
            entries.append(LengthEntry("e", 2.0, 0.0, n, mls_length(0.0, n, L)))
    for word in words:
        m = symbols[word[0]]
        for s in word[1:]:
            m = m.compose(symbols[s])
        tr = m.trace
        if abs(tr) <= 2.0 + HYPERBOLIC_TRACE_MARGIN:
            continue
        ell_sigma = translation_length(m)
        label = "".join(chr(ord("A" if s % 2 else "a") + s // 2) for s in word)
        for n in range(-n_max, n_max + 1):
            if accept(abs(tr), n):
                entries.append(LengthEntry(label, tr, ell_sigma, n, mls_length(ell_sigma, n, L)))
    entries.sort(key=lambda e: (e.ell, e.n, e.word))
    return entries
