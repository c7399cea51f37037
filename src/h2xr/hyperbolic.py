"""Exact upper half-plane geometry.

Distances, Moebius actions and translation lengths.  Everything here is
closed form; the numerical modules treat these functions as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

from .errors import DomainError

UNIMODULAR_TOL = 1e-12
# |trace| must clear 2 by this margin before we call an element hyperbolic;
# values inside the band are rejected rather than classified heuristically.
HYPERBOLIC_TRACE_MARGIN = 1e-12


@dataclass(frozen=True)
class HPoint:
    """Point x + iy of the upper half-plane, y > 0 strictly."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"non-finite point ({self.x}, {self.y})")
        if self.y <= 0.0:
            raise DomainError(f"point must have y > 0, got y = {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class MobiusElement:
    """Real unimodular 2x2 matrix acting on the upper half-plane.

    The constructor checks |det - 1| <= UNIMODULAR_TOL.  Products and
    inverses skip the check (checked=False): their factors passed it, and
    the rounding of a long product moves det by more than the tolerance.
    """

    a: float
    b: float
    c: float
    d: float
    checked: InitVar[bool] = True

    def __post_init__(self, checked):
        det = self.a * self.d - self.b * self.c
        if checked and (not math.isfinite(det) or abs(det - 1.0) > UNIMODULAR_TOL):
            raise DomainError(f"matrix is not unimodular: det = {det}")

    @property
    def trace(self) -> float:
        return self.a + self.d

    def compose(self, other: "MobiusElement") -> "MobiusElement":
        return MobiusElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            checked=False,
        )

    def inverse(self) -> "MobiusElement":
        return MobiusElement(self.d, -self.b, -self.c, self.a, checked=False)

    @classmethod
    def identity(cls) -> "MobiusElement":
        return cls(1.0, 0.0, 0.0, 1.0)


def arccosh_1p(u: float) -> float:
    """arccosh(1 + u) for u >= 0, as log1p(u + sqrt(u (u + 2))): nothing cancels."""
    if u < 0.0:
        if u > -1e-14:  # clip negative rounding fuzz
            u = 0.0
        else:
            raise DomainError(f"arccosh argument below 1: 1 + {u}")
    root = math.sqrt(u * (u + 2.0))
    if root == math.inf:   # u above ~1.3e154: u (u + 2) overflows, its square roots do not
        root = math.sqrt(u) * math.sqrt(u + 2.0)
    return math.log1p(u + root)


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance arccosh(1 + |p-q|^2 / (2 y_p y_q))."""
    dx = p.x - q.x
    dy = p.y - q.y
    u = (dx * dx + dy * dy) / (2.0 * p.y * q.y)
    if not math.isfinite(u):
        raise DomainError("distance argument is not finite")
    return arccosh_1p(u)


def mobius_apply(m: MobiusElement, p: HPoint) -> HPoint:
    """Apply z -> (az + b)/(cz + d).  Preserves y > 0."""
    w = m.c * p.z + m.d
    denom = abs(w) ** 2
    if denom == 0.0:
        raise DomainError("point maps to infinity under this element")
    z = (m.a * p.z + m.b) * w.conjugate() / denom
    return HPoint(z.real, z.imag)


def translation_length(m: MobiusElement) -> float:
    """Minimal displacement 2 arccosh(|tr|/2) of a hyperbolic element."""
    half_tr = abs(m.trace) / 2.0
    if half_tr <= 1.0 + HYPERBOLIC_TRACE_MARGIN / 2.0:
        raise DomainError(
            f"not hyperbolic: |trace| = {2.0 * half_tr} is not above 2"
        )
    return 2.0 * arccosh_1p(half_tr - 1.0)


def load_generators(path) -> list[MobiusElement]:
    """Read generators from a text file, one "a b c d" per line.

    Blank lines and lines starting with '#' are skipped.  Unimodularity is
    enforced by the MobiusElement constructor.
    """
    gens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DomainError(
                    f"{path}:{lineno}: expected four entries, got {len(parts)}"
                )
            try:
                a, b, c, d = (float(s) for s in parts)
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
            gens.append(MobiusElement(a, b, c, d))
    return gens
