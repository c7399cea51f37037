"""Metric families on the chart H^2 x R and their curvature.

Three declarative families, all evaluated in coordinates (x, y, t) with
y > 0 and t the fiber coordinate:

  Product  g = (dx^2 + dy^2)/y^2 + L^2 dt^2
  Warped   g = (dx^2 + dy^2)/y^2 + f(p)^2 dt^2, f a radial C^2 bump profile
  Twisted  g = (dx^2 + dy^2)/y^2 + (1 + alpha h)^2 dt^2, h a registered
           potential; the first-order fiber shear generated by h

All three are the warped product H^2 x_phi R with phi = L, f(rho) or
1 + alpha h, so the geometry is closed form in the jet (phi, dphi, Hess phi)
(O'Neill, Semi-Riemannian Geometry, ch. 7; Bishop & O'Neill 1969).  The
kernel `fiber` returns the jet from one evaluation; `_fiber` is its
first-order part, which the RK4 derivative reads, and `_fiber_point` that
part on floats.  Only they know how each kind builds phi:

  Gamma^t_{it} = d_i phi / phi,  Gamma^i_{tt} = -phi y^2 d_i phi,
  plus the hyperbolic base block;
  R4 = the K = -1 base block, R4[a, t, b, t] = -phi Hess phi_ab, and
  every component with one or three t indices zero;
  R_V = -y^2 Hess phi / phi in the orthonormal horizontal frame;
  g = diag(1/y^2, 1/y^2, phi^2), which `inner_many` contracts directly.

Index conventions, used consistently everywhere downstream:

  Gamma[k, i, j]    = Gamma^k_{ij}
  R4[i, j, k, l]    = g(R(d_i, d_j) d_l, d_k),  so the sectional curvature
                      of the (i, j) coordinate plane is
                      R4[i,j,i,j] / (g_ii g_jj - g_ij^2)
  Ric[j, k]         = g^{il} R4[i, j, l, k]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .hyperbolic import HPoint

KINDS = ("Product", "Warped", "Twisted")


@dataclass(frozen=True)
class ChartPoint:
    """Coordinates (x, y, t) on the chart, y > 0."""

    x: float
    y: float
    t: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.t)):
            raise DomainError("non-finite chart point")
        if self.y <= 0.0:
            raise DomainError(f"chart point needs y > 0, got y = {self.y}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.t], dtype=float)


# ---------------------------------------------------------------------------
# warp profile
# ---------------------------------------------------------------------------

def _smoothstep5(u):
    """Quintic smoothstep with two vanishing derivatives at both ends.

    Takes an array or a float; both give the same bits, since numpy
    squares an array by one multiplication.
    """
    s = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    v = 1.0 - u
    ds = 30.0 * u * u * (v * v)
    dds = 60.0 * u * v * (1.0 - 2.0 * u)
    return s, ds, dds


@dataclass(frozen=True)
class WarpProfile:
    """Radial bump profile: quadratic cap, C^2 quintic blend to f == 1.

    f(r) = 1 + eps/2 - eps r^2 on [0, r0], f == 1 for r >= r1, and on
    [r0, r1] the deviation from 1 is faded out by a quintic smoothstep,
    which preserves f, f', f'' at both junctions.
    """

    center: HPoint
    eps: float
    r0: float = 0.5
    r1: float = 0.75

    def __post_init__(self):
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise DomainError(f"warp eps must be > 0, got {self.eps}")
        if not (0.0 < self.r0 < self.r1):
            raise DomainError(f"need 0 < r0 < r1, got ({self.r0}, {self.r1})")
        fmin = float(np.min(self.eval_many(np.linspace(0.0, self.r1, 257))[0]))
        if fmin <= 0.0:
            raise DomainError(f"profile not positive (min f = {fmin}); eps too large")

    def eval_many(self, r):
        """Vectorized (f, f', f'') at radii r >= 0."""
        r = np.asarray(r, dtype=float)
        dev = self.eps * (0.5 - r * r)        # quadratic cap minus 1
        ddev = -2.0 * self.eps * r
        dddev = -2.0 * self.eps
        width = self.r1 - self.r0
        u = np.clip((r - self.r0) / width, 0.0, 1.0)
        s, ds, dds = _smoothstep5(u)
        w = 1.0 - s
        dw = -ds / width
        ddw = -dds / (width * width)

        f = 1.0 + dev * w
        fp = ddev * w + dev * dw
        fpp = dddev * w + 2.0 * ddev * dw + dev * ddw

        outside = r >= self.r1
        f = np.where(outside, 1.0, f)
        fp = np.where(outside, 0.0, fp)
        fpp = np.where(outside, 0.0, fpp)
        return f, fp, fpp

    def _eval_one(self, r: float):
        """(f, f') at one radius r as floats, bit-identical to eval_many.

        Branches on cap, blend and outside where eval_many clips and masks;
        in the cap eval_many's w == 1 and dw == -0.0 leave f and f' exact.
        """
        dev = self.eps * (0.5 - r * r)
        ddev = -2.0 * self.eps * r
        if not r > self.r0:
            return 1.0 + dev, ddev
        if r >= self.r1:
            return 1.0, 0.0
        width = self.r1 - self.r0
        s, ds, _ = _smoothstep5((r - self.r0) / width)
        w = 1.0 - s
        return 1.0 + dev * w, ddev * w + dev * (-ds / width)


# ---------------------------------------------------------------------------
# twisted potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Analytic potential h(x, y) with its closed-form derivatives.

    All three take coordinate arrays x, y of one shape (numpy scalars
    when a lone trajectory steps).  fn returns h;
    grad the coordinate partials (h_x, h_y), each shaped like x; hess the
    covariant Hessian on H^2 in lowered coordinates, shape x.shape + (2, 2),
    i.e. d_a d_b h - Gamma^c_ab d_c h with the hyperbolic Christoffels.
    The Twisted geometry is built from grad and hess alone.
    """

    fn: object
    grad: object
    hess: object


_POTENTIALS: dict[str, Potential] = {}


def register_potential(name: str, fn, grad, hess) -> None:
    _POTENTIALS[name] = Potential(fn, grad, hess)


def get_potential(name: str) -> Potential:
    try:
        return _POTENTIALS[name]
    except KeyError:
        raise DomainError(
            f"unknown potential {name!r}; registered: {sorted(_POTENTIALS)}"
        ) from None


register_potential(
    "log_y",
    fn=lambda x, y: np.log(y),
    grad=lambda x, y: (0.0 * x + 0.0, 1.0 / y),
    hess=lambda x, y: np.stack(
        [
            np.stack([-1.0 / (y * y), np.zeros_like(x)], axis=-1),
            np.stack([np.zeros_like(x), np.zeros_like(x)], axis=-1),
        ],
        axis=-2,
    ),
)
register_potential(
    "x",
    fn=lambda x, y: x + 0.0 * y,
    grad=lambda x, y: (1.0 + 0.0 * x, 0.0 * y),
    hess=lambda x, y: np.stack(
        [
            np.stack([np.zeros_like(x), 1.0 / y], axis=-1),
            np.stack([1.0 / y, np.zeros_like(x)], axis=-1),
        ],
        axis=-2,
    ),
)


# ---------------------------------------------------------------------------
# metric specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """Declarative metric description; immutable and hashable."""

    kind: str
    L: float = 1.0
    warp: WarpProfile | None = None
    alpha: float = 0.0
    potential: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown metric kind {self.kind!r}")
        if self.kind == "Product" and not (self.L > 0.0 and math.isfinite(self.L)):
            raise DomainError(f"fiber length L must be > 0, got {self.L}")
        if self.kind == "Warped" and self.warp is None:
            raise DomainError("Warped spec needs a WarpProfile")
        if self.kind == "Twisted":
            if self.potential is None:
                raise DomainError("Twisted spec needs a registered potential")
            get_potential(self.potential)
            if not math.isfinite(self.alpha):
                raise DomainError("twist amplitude must be finite")

    @classmethod
    def product(cls, L: float = 1.0) -> "MetricSpec":
        return cls(kind="Product", L=L)

    @classmethod
    def warped(cls, eps: float, center: HPoint = HPoint(0.0, 1.0),
               r0: float = 0.5, r1: float = 0.75) -> "MetricSpec":
        return cls(kind="Warped", warp=WarpProfile(center, eps, r0, r1))

    @classmethod
    def twisted(cls, alpha: float, potential: str = "log_y") -> "MetricSpec":
        return cls(kind="Twisted", alpha=alpha, potential=potential)


# ---------------------------------------------------------------------------
# evaluation helpers over arrays of points
# ---------------------------------------------------------------------------

def _check_points(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 3:
        raise DomainError(f"points must have shape (..., 3), got {q.shape}")
    y = q[..., 1]
    if not np.all(np.isfinite(q)):
        raise DomainError("non-finite point in batch")
    if np.any(y <= 0.0):
        raise DomainError("point with y <= 0 in batch")
    return q


def _warp_radius_and_grad(profile: WarpProfile, q: np.ndarray):
    """Hyperbolic radius from the warp center and its coordinate partials.

    Returns (rho, d_x rho, d_y rho); the partials are 0 at the center.
    """
    cx, cy = profile.center.x, profile.center.y
    x, y = q[..., 0], q[..., 1]
    dx = x - cx
    dy = y - cy
    u = (dx * dx + dy * dy) / (2.0 * cy * y)
    root = np.sqrt(u * (u + 2.0))
    rho = np.log1p(u + root)
    du_x = dx / (cy * y)
    du_y = dy / (cy * y) - u / y
    safe = root > 1e-30
    inv = np.where(safe, 1.0 / np.where(safe, root, 1.0), 0.0)
    return rho, du_x * inv, du_y * inv


def _fiber(spec: MetricSpec, q: np.ndarray):
    """fiber() on points already validated; the RK4 right-hand side calls this."""
    if spec.kind == "Product":
        zero = np.zeros(q.shape[:-1])
        return np.full(q.shape[:-1], spec.L), (zero, zero)
    if spec.kind == "Warped":
        rho, drx, dry = _warp_radius_and_grad(spec.warp, q)
        f, fp, _ = spec.warp.eval_many(rho)
        return f, (fp * drx, fp * dry)
    pot = get_potential(spec.potential)
    x, y = q[..., 0], q[..., 1]
    phi = 1.0 + spec.alpha * pot.fn(x, y)
    if np.any(phi <= 0.0):
        raise DomainError("shear factor 1 + alpha h reached zero in batch")
    hx, hy = pot.grad(x, y)
    return phi, (spec.alpha * hx, spec.alpha * hy)


def _fiber_point(spec: MetricSpec):
    """_fiber at one point on floats: returns (x, y) -> (phi, d_x phi, d_y phi).

    For the RK4 kinds, Warped and Twisted.  The kind dispatch and the
    potential lookup happen here, once; the returned function repeats
    _fiber's operations in the same order on Python floats, so its values
    are the same bits, except that a float divided by zero raises
    ZeroDivisionError where numpy gives inf or nan.
    """
    if spec.kind == "Twisted":
        pot, alpha = get_potential(spec.potential), spec.alpha

        def twisted(x, y):
            x, y = np.float64(x), np.float64(y)
            phi = 1.0 + alpha * float(pot.fn(x, y))
            if phi <= 0.0:
                raise DomainError("shear factor 1 + alpha h reached zero in batch")
            hx, hy = pot.grad(x, y)
            return phi, alpha * float(hx), alpha * float(hy)
        return twisted

    profile = spec.warp
    cx, cy = profile.center.x, profile.center.y

    def warped(x, y):
        # _warp_radius_and_grad, then eval_many's f and f'
        dx = x - cx
        dy = y - cy
        u = (dx * dx + dy * dy) / (2.0 * cy * y)
        uu = u * (u + 2.0)
        root = math.sqrt(uu) if uu >= 0.0 else math.nan  # y < 0 at an RK4 stage
        f, fp = profile._eval_one(float(np.log1p(u + root)))
        inv = 1.0 / root if root > 1e-30 else 0.0
        return f, fp * (dx / (cy * y) * inv), fp * ((dy / (cy * y) - u / y) * inv)
    return warped


def fiber(spec: MetricSpec, q):
    """The jet (phi, (d_x phi, d_y phi), Hess phi) for a batch of points, phi = sqrt(g_tt).

    phi is L for Product, f(rho) for Warped and 1 + alpha h for Twisted;
    the partials are coordinate partials, arrays shaped like phi, and
    Hess phi is the covariant Hessian on H^2 in coordinates, (..., 2, 2).
    Warped evaluates one radius and one profile for all three.

    Warped: Hess f(rho) = f'' drho drho + (f'/tanh rho)(g_H - drho drho),
    using Hess rho = coth(rho) (g_H - drho drho); at the center f'/tanh rho
    tends to f''(0) and the Hessian is f''(0) g_H.
    """
    q = _check_points(q)
    if spec.kind != "Warped":
        phi, dphi = _fiber(spec, q)
        if spec.kind == "Product":
            return phi, dphi, np.zeros(q.shape[:-1] + (2, 2))
        hess = get_potential(spec.potential).hess(q[..., 0], q[..., 1])
        return phi, dphi, spec.alpha * np.asarray(hess, dtype=float)
    rho, drx, dry = _warp_radius_and_grad(spec.warp, q)
    f, fp, fpp = spec.warp.eval_many(rho)
    th = np.tanh(rho)
    angular = np.where(th > 0.0, fp / np.where(th > 0.0, th, 1.0), fpp)
    radial = fpp - angular
    g_h = angular / (q[..., 1] * q[..., 1])
    hess = np.empty(q.shape[:-1] + (2, 2))
    hess[..., 0, 0] = radial * drx * drx + g_h
    hess[..., 0, 1] = hess[..., 1, 0] = radial * drx * dry
    hess[..., 1, 1] = radial * dry * dry + g_h
    return f, (fp * drx, fp * dry), hess


def metric_many(spec: MetricSpec, q) -> np.ndarray:
    """Full metric tensor g_{ij}(q), (..., 3, 3), for a batch of points; kept for bench/micro.py."""
    q = _check_points(q)
    y = q[..., 1]
    g = np.zeros(q.shape[:-1] + (3, 3))
    inv_y2 = 1.0 / (y * y)
    g[..., 0, 0] = inv_y2
    g[..., 1, 1] = inv_y2
    g[..., 2, 2] = _fiber(spec, q)[0] ** 2
    return g


def _diagonal_dot(g, a, b):
    """g(a, b) for g = (g_xx, g_yy, g_tt) and components a[i], b[i], floats or arrays.

    Summed in np.einsum's order over metric_many's full tensor, so with its
    bits, except that an exact zero may be -0.0 where einsum gives +0.0.
    """
    return (g[0] * a[0]) * b[0] + (g[1] * a[1]) * b[1] + (g[2] * a[2]) * b[2]


def inner_many(spec: MetricSpec, q, a, b) -> np.ndarray:
    """g(a, b) at a batch of points q (..., 3) for vectors a, b (..., 3) that broadcast with it."""
    q = _check_points(q)
    inv_y2 = 1.0 / (q[..., 1] * q[..., 1])
    g = (inv_y2, inv_y2, _fiber(spec, q)[0] ** 2)
    return _diagonal_dot(g, np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0))


def _diagonal_at(spec: MetricSpec, p: ChartPoint) -> tuple:
    """metric_many's diagonal (g_xx, g_yy, g_tt) at one point, as floats."""
    phi = float(spec.L) if spec.kind == "Product" else _fiber_point(spec)(p.x, p.y)[0]
    inv_y2 = 1.0 / (p.y * p.y)
    return inv_y2, inv_y2, phi * phi


def christoffel_many(spec: MetricSpec, q) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] for a batch of points; kept for bench/micro.py."""
    q = _check_points(q)
    y = q[..., 1]
    gam = np.zeros(q.shape[:-1] + (3, 3, 3))
    inv_y = 1.0 / y
    # hyperbolic base block, shared by all three families
    gam[..., 0, 0, 1] = -inv_y
    gam[..., 0, 1, 0] = -inv_y
    gam[..., 1, 0, 0] = inv_y
    gam[..., 1, 1, 1] = -inv_y
    # fiber coupling: Gamma^t_{it} = d_i phi / phi, Gamma^i_{tt} = -phi y^2 d_i phi
    phi, dphi = _fiber(spec, q)
    for i in range(2):
        gam[..., 2, i, 2] = gam[..., 2, 2, i] = dphi[i] / phi
        gam[..., i, 2, 2] = -phi * y * y * dphi[i]
    return gam


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureSample:
    """Lowered curvature tensor at a point plus derived summaries."""

    point: ChartPoint
    riemann: np.ndarray                 # R4[i, j, k, l]
    sectionals: dict = field(default_factory=dict)
    ricci: np.ndarray | None = None


def curvature_tensor_many(spec: MetricSpec, q) -> np.ndarray:
    """Lowered curvature R4[..., i, j, k, l] = g(R(d_i, d_j) d_l, d_k) for a batch.

    Closed form of the warped product: the hyperbolic block with K = -1,
    the mixed block R4[a, t, b, t] = -phi Hess phi_ab with its symmetric
    copies, and zero wherever one or three indices are t.
    """
    q = _check_points(q)
    inv_y2 = 1.0 / (q[..., 1] * q[..., 1])
    phi, _, hess = fiber(spec, q)
    r4 = np.zeros(q.shape[:-1] + (3, 3, 3, 3))
    base = inv_y2 * inv_y2          # -K g_xx g_yy
    r4[..., 0, 1, 0, 1] = -base
    r4[..., 1, 0, 1, 0] = -base
    r4[..., 0, 1, 1, 0] = base
    r4[..., 1, 0, 0, 1] = base
    mixed = -phi[..., None, None] * hess
    r4[..., 0:2, 2, 0:2, 2] = mixed
    r4[..., 2, 0:2, 2, 0:2] = mixed
    r4[..., 0:2, 2, 2, 0:2] = -mixed
    r4[..., 2, 0:2, 0:2, 2] = -mixed
    return r4


def curvature_at(spec: MetricSpec, p: ChartPoint) -> CurvatureSample:
    """R4 at p, the coordinate-plane sectionals R4[i,j,i,j] / (g_ii g_jj) and Ricci.

    The metric is diagonal, so Ric[j, k] = sum_i R4[i, j, i, k] / g_ii.
    """
    r4 = curvature_tensor_many(spec, p.as_array()[None, :])[0]
    g = _diagonal_at(spec, p)
    sectionals = {(i, j): float(r4[i, j, i, j] / (g[i] * g[j]))
                  for i, j in ((0, 1), (0, 2), (1, 2))}
    ricci = np.einsum("i,ijik->jk", 1.0 / np.array(g), r4)
    return CurvatureSample(point=p, riemann=r4, sectionals=sectionals, ricci=ricci)


def r_v_operator_many(spec: MetricSpec, q) -> np.ndarray:
    """Matrix of X -> R(X, V)V on the horizontal plane, orthonormal basis.

    With V = d_t / phi and the frame (y d_x, y d_y) this is
    y^2 R4[a, t, b, t] / phi^2 = -y^2 Hess phi / phi, read straight from
    the fiber kernel rather than from the full R4.
    """
    q = _check_points(q)
    phi, _, hess = fiber(spec, q)
    return _r_v(q[..., 1], phi, hess)


def _r_v(y, phi, hess):
    """r_v_operator_many from the jet (phi, Hess phi) at points with ordinate y."""
    scale = y * y / (phi * phi)
    return scale[..., None, None] * (-phi[..., None, None] * hess)
