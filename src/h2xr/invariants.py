"""Closed-form invariant calculators for the product geometry.

Ingested surface spectra (never computed here), the additive product
Laplace spectrum, spectral gap, marked length spectrum enumeration from
holonomy generators, the isoperimetric bound with its tube test regions,
the explicit curvature-gap constant, the integral curvature-deviation
functional, and the moduli dimension count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError
from .hyperbolic import (
    HYPERBOLIC_TRACE_MARGIN,
    MobiusElement,
    translation_length,
)
from .metrics import MetricSpec, _r_v, fiber

MAX_WORD_LENGTH = 8
DEDUP_TOL = 1e-9
SPECTRUM_MAX_MODES = 1_000_000   # product_spectrum's limit: 10^6 modes take ~3 s, a 20 MB CSV


def _positive(name: str, value: float) -> None:
    """Raise a DomainError naming the input unless value is finite and > 0; nan fails too."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be > 0, got {value}")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaSpectrum:
    """Sorted Laplace eigenvalues of the base surface, with multiplicity."""

    eigenvalues: tuple

    def __post_init__(self):
        ev = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", ev)
        if not ev:
            raise DomainError("spectrum is empty")
        if any(not math.isfinite(v) or v < 0.0 for v in ev):
            raise DomainError("eigenvalues must be finite and >= 0")
        if list(ev) != sorted(ev):
            raise DomainError("eigenvalues must be nondecreasing")
        if ev[0] != 0.0:
            raise DomainError("spectrum must start at 0 (connected surface)")
        if len(ev) > 1 and ev[1] == 0.0:
            raise DomainError("zero eigenvalue must be simple (connected surface)")

    @classmethod
    def from_file(cls, path) -> "SigmaSpectrum":
        values = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(float(line))
                except ValueError as exc:
                    raise DomainError(f"{path}:{lineno}: {exc}") from exc
        return cls(tuple(sorted(values)))

    def first_positive(self) -> float:
        for v in self.eigenvalues:
            if v > 0.0:
                return v
        raise DomainError("spectrum has no positive eigenvalue")


def product_spectrum(sig: SigmaSpectrum, L: float, cutoff: float):
    """Eigenvalues lam + (2 pi n / L)^2 up to the cutoff, with multiplicity.

    Circle modes n != 0 carry multiplicity 2 (folded onto |n|).  Returns a
    sorted list of (eigenvalue, multiplicity) with exactly equal values
    merged.  More than SPECTRUM_MAX_MODES modes n >= 1, the sum over
    lam <= cutoff of floor(L sqrt(cutoff - lam) / (2 pi)), is a DomainError.
    """
    _positive("fiber length", L)
    _positive("cutoff", cutoff)
    sizes = (L * math.sqrt(cutoff - lam) / math.tau for lam in sig.eigenvalues if lam <= cutoff)
    count = sum(math.floor(x) if x < math.inf else x for x in sizes)
    if count > SPECTRUM_MAX_MODES:
        raise DomainError(f"cutoff {cutoff} gives {count} circle modes, over {SPECTRUM_MAX_MODES}")
    merged: dict[float, int] = {}
    for lam in sig.eigenvalues:
        if lam <= cutoff:
            merged[lam] = merged.get(lam, 0) + 1
        n = 1
        while True:
            val = lam + (2.0 * math.pi * n / L) ** 2
            if val > cutoff:
                break
            merged[val] = merged.get(val, 0) + 2
            n += 1
    return sorted(merged.items())


def spectral_gap(sig: SigmaSpectrum, L: float) -> float:
    """min(lambda_1 of the surface, (2 pi / L)^2), the first nonzero mode."""
    _positive("fiber length", L)
    return min(sig.first_positive(), (2.0 * math.pi / L) ** 2)


# ---------------------------------------------------------------------------
# marked length spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LengthEntry:
    """One free-homotopy class (word, n) with its closed geodesic length."""

    word: str
    trace: float
    ell_sigma: float
    n: int
    ell: float


def mls_length(ell_sigma: float, n: int, L: float) -> float:
    """Pythagorean length sqrt(ell_sigma^2 + (n L)^2) of the class."""
    _positive("fiber length", L)
    if ell_sigma < 0.0 or not math.isfinite(ell_sigma):
        raise DomainError(f"surface length must be >= 0, got {ell_sigma}")
    if ell_sigma == 0.0 and n == 0:
        raise DomainError("(0, 0) is not a closed geodesic class")
    return math.hypot(ell_sigma, n * L)


def _reduced_words(n_gens: int, max_word: int):
    """All reduced words as tuples of symbol ids; id ^ 1 is the inverse."""
    out = []
    stack = [()]
    while stack:
        word = stack.pop()
        if word:
            out.append(word)
        if len(word) == max_word:
            continue
        for s in range(2 * n_gens):
            if word and word[-1] == s ^ 1:
                continue
            stack.append(word + (s,))
    out.sort(key=lambda w: (len(w), w))
    return out


def _word_label(word, n_gens: int) -> str:
    if not word:
        return "e"
    letters = []
    for s in word:
        base = chr(ord("a") + s // 2)
        letters.append(base.upper() if s % 2 else base)
    return "".join(letters)


def enumerate_length_spectrum(generators, max_word: int, L: float, n_max: int):
    """LengthEntry list over reduced words up to max_word and |n| <= n_max.

    Hyperbolic words contribute one entry per fiber winding n; the
    identity class contributes the pure fiber classes.  Entries are
    deduplicated by (|trace|, n) within DEDUP_TOL, a conjugacy-class
    proxy (trace is a class function, though not injective), and sorted
    by total length.
    """
    if not (0 <= max_word <= MAX_WORD_LENGTH):
        raise DomainError(f"max_word must be in [0, {MAX_WORD_LENGTH}], got {max_word}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    _positive("fiber length", L)
    gens = list(generators)
    mats = []
    for g in gens:
        if not isinstance(g, MobiusElement):
            g = MobiusElement(*g)
        mats.append(g)
    symbols = []
    for m in mats:
        symbols.append(m)
        symbols.append(m.inverse())

    entries = []
    seen = []  # (|trace|, n) accepted keys, for tolerance dedup

    def accept(key) -> bool:
        tr, n = key
        for tr0, n0 in seen:
            if n0 == n and abs(tr0 - tr) <= DEDUP_TOL:
                return False
        seen.append(key)
        return True

    for n in range(-n_max, n_max + 1):
        if n == 0:
            continue
        if accept((2.0, n)):
            entries.append(LengthEntry("e", 2.0, 0.0, n, mls_length(0.0, n, L)))

    for word in _reduced_words(len(gens), max_word):
        m = symbols[word[0]]
        for s in word[1:]:
            m = m.compose(symbols[s])
        tr = m.trace
        if abs(tr) <= 2.0 + HYPERBOLIC_TRACE_MARGIN:
            continue  # elliptic/parabolic/identity word: no geodesic length
        ell_sigma = translation_length(m)
        label = _word_label(word, len(gens))
        for n in range(-n_max, n_max + 1):
            if accept((abs(tr), n)):
                entries.append(
                    LengthEntry(label, tr, ell_sigma, n, mls_length(ell_sigma, n, L))
                )
    entries.sort(key=lambda e: (e.ell, e.n, e.word))
    return entries


# ---------------------------------------------------------------------------
# isoperimetric profile
# ---------------------------------------------------------------------------

def isoperimetric_bound(v: float, L: float) -> float:
    """The profile lower bound 2 pi L sqrt(2v/(L pi) + (v/(2 pi L))^2)."""
    if v < 0.0 or not math.isfinite(v):
        raise DomainError(f"volume must be >= 0, got {v}")
    _positive("fiber length", L)
    try:
        return 2.0 * math.pi * L * math.sqrt(
            2.0 * v / (L * math.pi) + (v / (2.0 * math.pi * L)) ** 2
        )
    except OverflowError:
        raise NumericsError(f"isoperimetric bound overflows the float range at v = {v}") from None


@dataclass(frozen=True)
class TubeRow:
    """One comparison row: a candidate region vs the profile bound."""

    kind: str            # "disk" or "collar"
    param: float         # disk radius r or collar half-width w
    volume: float
    area: float
    bound: float
    area_minus_bound: float
    ratio: float         # area / bound
    status: str          # "area<bound" or "area>=bound"


def tube_profiles(L: float, r_list, ell_collar: float, w_list):
    """Boundary area vs bound for disk tubes D_r x S^1 and collar tubes.

    Disk tube: volume 2 pi L (cosh r - 1), boundary area 2 pi L sinh r.
    Collar of half-width w around a closed geodesic of length ell:
    volume 2 L ell sinh w, boundary area 2 L ell cosh w.
    """
    _positive("fiber length", L)
    if w_list:
        _positive("collar geodesic length", ell_collar)

    def disk(r):
        return 2.0 * math.pi * L * (math.cosh(r) - 1.0), 2.0 * math.pi * L * math.sinh(r)

    def collar(w):
        return 2.0 * L * ell_collar * math.sinh(w), 2.0 * L * ell_collar * math.cosh(w)

    return ([_tube_row("disk", "disk radius", r, disk, L) for r in r_list]
            + [_tube_row("collar", "collar width", w, collar, L) for w in w_list])


def _tube_row(kind, name, param, volume_area, L):
    """The TubeRow of one tube, (volume, area) = volume_area(param).

    A volume, area or bound past the float range, or a bound that rounds
    to 0 (below r ~ 1.5e-8), raises NumericsError naming the radius or width.
    """
    _positive(name, param)
    try:
        v, area = volume_area(param)
        bound = isoperimetric_bound(v, L) if area < math.inf else math.inf   # v <= area
    except (OverflowError, NumericsError):
        bound = math.inf
    if bound == math.inf:
        raise NumericsError(f"{kind} tube overflows the float range at {name} {param}")
    if bound == 0.0:
        raise NumericsError(f"{kind} tube bound rounds to 0 at {name} {param}")
    diff = area - bound
    return TubeRow(
        kind=kind, param=param, volume=v, area=area, bound=bound,
        area_minus_bound=diff, ratio=area / bound,
        status="area<bound" if diff < 0.0 else "area>=bound",
    )


# ---------------------------------------------------------------------------
# curvature gap and deviation
# ---------------------------------------------------------------------------

def epsilon0(lambda1: float, L: float, diam: float):
    """(delta, eps0) = (min(lambda1/2, pi^2/L^2), delta/(4 (1 + diam^2)))."""
    for name, val in (("lambda1", lambda1), ("L", L), ("diam", diam)):
        _positive(name, val)
    delta = min(lambda1 / 2.0, math.pi ** 2 / L ** 2)
    return delta, delta / (4.0 * (1.0 + diam * diam))


@dataclass(frozen=True)
class DeviationEstimate:
    estimate: float
    std_error: float
    n_samples: int


def curvature_deviation(spec: MetricSpec, box, n: int, seed: int) -> DeviationEstimate:
    """Monte Carlo integral of |R_V|^2 + |nabla V|^2 over a chart box.

    box is ((x0, x1), (y0, y1), (t0, t1)); sampling is uniform in
    coordinates and reweighted by the Riemannian volume density.
    """
    if n < 100:
        raise DomainError(f"need at least 100 samples, got {n}")
    (x0, x1), (y0, y1), (t0, t1) = box
    if y0 <= 0.0:
        raise DomainError("box intersects y <= 0")
    if not (x1 > x0 and y1 > y0 and t1 > t0):
        raise DomainError("box must have positive extent in every coordinate")
    rng = np.random.default_rng(seed)
    q = np.column_stack([
        rng.uniform(x0, x1, n), rng.uniform(y0, y1, n), rng.uniform(t0, t1, n)
    ])
    phi, (dphi_x, dphi_y), hess = fiber(spec, q)
    rv = _r_v(q[:, 1], phi, hess)
    rv2 = np.einsum("bij,bij->b", rv, rv)
    # |nabla V|^2 of the unit vertical field V = d_t / phi is |grad phi|^2 / phi^2
    grad_v2 = q[:, 1] ** 2 * (dphi_x * dphi_x + dphi_y * dphi_y) / (phi * phi)
    integrand = (rv2 + grad_v2) * (phi / (q[:, 1] * q[:, 1]))   # volume density sqrt(det g)
    coord_vol = (x1 - x0) * (y1 - y0) * (t1 - t0)
    est = coord_vol * float(np.mean(integrand))
    se = coord_vol * float(np.std(integrand, ddof=1) / math.sqrt(n))
    return DeviationEstimate(estimate=est, std_error=se, n_samples=n)


def moduli_dimension(genus: int) -> int:
    """6 g - 6 Teichmueller dimensions plus one fiber length."""
    if genus < 2:
        raise DomainError(
            f"genus {genus}: theorem hypothesis chi < 0 violated"
        )
    return 6 * genus - 6 + 1
