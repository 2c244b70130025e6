"""Dense lattice discretizations for desk-scale spectral verification.

The fractional operator is realized on a periodic box as a Fourier
multiplier in the discrete symbol

    sigma(k) = sum_j (2 - 2 cos(2 pi k_j / N)) / spacing^2,

raised to the power s; restricting rows and columns to a block of
interior sites reproduces the exterior-condition form domain at lattice
level.  A domain is an interval or rectangle of cells centered in a box
of ``BOX_MULTIPLE`` = 3 times its longest side, so the margin to the box
boundary is at least a third of the box.  That makes wrap-around
negligible for s = 1 but not for s < 1: the torus has a finite exterior,
so the killing part of the form is too small and the low spectrum is
biased low (on (-1, 1), 256 cells, lam_1 is 4.6% below its large-box
limit at s = 1/2 and 13.7% below at s = 1/4).  The fractional power of
the Dirichlet Laplacian is built by eigendecomposition of the block's
stencil.  On top of the two operators sit Riesz means, two-term fits, and
the operator-level property checks (sharp trace bound, coherent-state
identity, operator ordering, half-space kernel law, localization defect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .quadcore import c_sd
from .halfline import FractionalOrder, HalfLineModel
from .constants import bulk_coefficient

__all__ = [
    "LatticeDomain",
    "SymmetricOperator",
    "SpectrumResult",
    "AsymptoticFit",
    "MarginError",
    "interval_domain",
    "rectangle_domain",
    "square_domain",
    "build_restricted_fractional",
    "build_dirichlet_power",
    "eigenvalues_sym",
    "riesz_mean",
    "check_h_grid",
    "two_term_fit",
    "berezin_bound_check",
    "coherent_state_identity_check",
    "operator_order_check",
    "halfspace_kernel_check",
    "ims_defect_check",
]

DENSE_LIMIT = 4096
#: box side over the domain's longest side
BOX_MULTIPLE = 3


class MarginError(ValueError):
    """Block sits too close to the periodic box boundary."""


@dataclass(frozen=True)
class LatticeDomain:
    """Block of cells centered in a periodic embedding box.

    ``cells`` is ``(m,)`` for an interval or ``(mx, my)`` for a rectangle;
    along each axis the block starts at box index ``(box_points - c) // 2``.
    Sites are cell-centered and ordered lexicographically, so a block of m
    cells represents an interval of length m*spacing.
    """

    cells: tuple
    spacing: float
    box_points: int

    def __post_init__(self):
        if len(self.cells) not in (1, 2):
            raise ValueError("only 1- and 2-dimensional lattices are supported")
        if min(self.cells) < 1:
            raise ValueError("cell counts must be positive")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        margin = min(min(int(ax[0]), self.box_points - 1 - int(ax[-1]))
                     for ax in self._axes())
        if margin < self.box_points / 3 - 1:
            raise MarginError(
                f"block margin {margin} below box/3 = {self.box_points / 3:.1f}; "
                "enlarge the box to suppress wrap-around")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def size(self) -> int:
        return math.prod(self.cells)

    @property
    def volume(self) -> float:
        if self.dim == 1:
            return self.cells[0] * self.spacing
        mx, my = self.cells
        return mx * my * self.spacing ** 2

    @property
    def surface(self) -> float:
        if self.dim == 1:
            return 2.0
        mx, my = self.cells
        return 2.0 * (mx + my) * self.spacing

    def _axes(self) -> list:
        """Box indices of the block along each axis."""
        return [(self.box_points - c) // 2 + np.arange(c) for c in self.cells]

    def indices(self) -> np.ndarray:
        """Box index tuple of every site, one row per site."""
        grids = np.meshgrid(*self._axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def coordinates(self) -> np.ndarray:
        """Cell-center coordinates relative to the block's lower faces."""
        local = [(np.arange(c, dtype=float) + 0.5) * self.spacing for c in self.cells]
        grids = np.meshgrid(*local, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def interval_domain(m: int) -> LatticeDomain:
    """Unit interval of m cells."""
    return LatticeDomain((m,), 1.0 / m, BOX_MULTIPLE * m)


def rectangle_domain(mx: int, my: int, spacing: float) -> LatticeDomain:
    """Rectangle of mx x my cells of side ``spacing``."""
    return LatticeDomain((mx, my), spacing, BOX_MULTIPLE * max(mx, my))


def square_domain(m: int) -> LatticeDomain:
    """Unit square of m x m cells."""
    return rectangle_domain(m, m, 1.0 / m)


@dataclass(frozen=True)
class SymmetricOperator:
    n: int
    entries: np.ndarray

    def __post_init__(self):
        a = self.entries
        if a.shape != (self.n, self.n):
            raise ValueError("entries shape mismatch")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues and their invariant defect (eigenvalues_sym)."""

    eigenvalues: np.ndarray
    invariant_defect: float

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")


@dataclass(frozen=True)
class AsymptoticFit:
    c0: float
    c1: float
    h_samples: tuple
    rms_residual: float

    def __post_init__(self):
        if not self.c0 > 0:
            raise ValueError("leading fitted coefficient must be positive")


def _symbol_1d(box: int, spacing: float) -> np.ndarray:
    k = np.arange(box)
    return (2.0 - 2.0 * np.cos(2.0 * math.pi * k / box)) / spacing ** 2


def _multiplier_kernel(domain: LatticeDomain, s: float) -> np.ndarray:
    """Real-space convolution kernel of the box multiplier sigma^s, made
    exactly even (k(-n) == k(n) bitwise) so every restriction of it is an
    exactly symmetric matrix."""
    sig = _symbol_1d(domain.box_points, domain.spacing)
    if domain.dim == 1:
        kern = np.fft.ifft(sig ** s).real
    else:
        kern = np.fft.ifft2((sig[:, None] + sig[None, :]) ** s).real
    mirrored = np.roll(np.flip(kern), 1, axis=tuple(range(kern.ndim)))
    return 0.5 * (kern + mirrored)


def build_restricted_fractional(domain: LatticeDomain, s: float) -> SymmetricOperator:
    """Block restriction of the periodic-box fractional multiplier.

    The matrix is the compression P M_s P of the periodic-box operator.
    With s = 1 it reduces to the Dirichlet stencil up to wrap-around,
    which the margin invariant keeps below 1e-10; for s < 1 wrap-around
    biases the low spectrum low (see the module docstring).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional power must lie in (0, 1]")
    kern = _multiplier_kernel(domain, s)
    # per-axis offset tables: entry (p, q) is kern at the box offset of
    # site p from site q, gathered without any n x n index matrix
    offsets = [(ax[:, None] - ax[None, :]) % domain.box_points
               for ax in domain._axes()]
    if domain.dim == 1:
        a = kern[offsets[0]]
    else:
        di, dj = offsets
        a = kern[di[:, None, :, None], dj[None, :, None, :]].reshape(
            domain.size, domain.size)
    return SymmetricOperator(domain.size, a)


def _dirichlet_stencil(domain: LatticeDomain) -> np.ndarray:
    """Negative Dirichlet Laplacian of the block: the Kronecker sum of the
    1-D second differences (2 on the diagonal, -1 to each neighbour) over
    spacing^2."""
    shifts = [np.eye(c, k=1) + np.eye(c, k=-1) for c in domain.cells]
    if domain.dim == 1:
        a = shifts[0]
    else:
        (mx, my), (sx, sy) = domain.cells, shifts
        a = np.kron(sx, np.eye(my))
        a += np.kron(np.eye(mx), sy)
    inv_h2 = 1.0 / domain.spacing ** 2
    np.subtract(0.0, a, out=a)  # unlike -a, leaves no signed zeros
    a *= inv_h2
    np.fill_diagonal(a, 2.0 * domain.dim * inv_h2)
    return a


def build_dirichlet_power(domain: LatticeDomain, s: float) -> SymmetricOperator:
    """s-th power of the block's Dirichlet stencil via eigendecomposition."""
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional power must lie in (0, 1]")
    a = _dirichlet_stencil(domain)
    if s == 1.0:
        return SymmetricOperator(domain.size, a)
    w, v = np.linalg.eigh(a)
    out = (v * w ** s) @ v.T
    out = 0.5 * (out + out.T)
    return SymmetricOperator(domain.size, out)


def eigenvalues_sym(op: SymmetricOperator) -> SpectrumResult:
    """Full ascending spectrum, without eigenvectors, checked against the
    trace and the Frobenius norm of the matrix."""
    if op.n > DENSE_LIMIT:
        raise ValueError(f"matrix size {op.n} exceeds dense limit {DENSE_LIMIT}")
    w = np.linalg.eigvalsh(op.entries)
    norm = max(float(np.max(np.abs(w))), 1e-300)
    defect = max(abs(float(np.sum(w)) - float(np.trace(op.entries))),
                 abs(float(np.linalg.norm(w)) - float(np.linalg.norm(op.entries))))
    if defect > 1e-8 * norm:
        raise ArithmeticError(f"spectral invariant defect {defect} above 1e-8 * norm")
    return SpectrumResult(w, defect)


def riesz_mean(spectrum: SpectrumResult, h: float, s: float) -> float:
    """Sum of (1 - h^2s * lam)_+ over the computed spectrum."""
    if not h > 0:
        raise ValueError("h must be positive")
    return float(np.clip(1.0 - h ** (2.0 * s) * spectrum.eigenvalues, 0.0, None).sum())


def check_h_grid(hs) -> None:
    """Raise ValueError unless 4 or more h values span a factor of 4."""
    hs = np.asarray(hs, dtype=float)
    if hs.size < 4:
        raise ValueError("need at least 4 (h, trace) samples")
    if hs.max() / hs.min() < 4.0:
        raise ValueError("h samples must span at least a factor of 4")


def two_term_fit(samples, d: int) -> AsymptoticFit:
    """Least-squares fit trace ~ c0 h^-d + c1 h^(-d+1)."""
    samples = [(float(h), float(tr)) for h, tr in samples]
    hs = np.array([h for h, _ in samples])
    tr = np.array([t for _, t in samples])
    check_h_grid(hs)
    design = np.column_stack([hs ** (-d), hs ** (-d + 1)])
    scale = np.linalg.norm(design, axis=0)
    cond = np.linalg.cond(design / scale)
    if cond > 1e10:
        raise ArithmeticError(f"ill-conditioned two-term design (cond={cond:.2e})")
    coef, *_ = np.linalg.lstsq(design, tr, rcond=None)
    resid = (design @ coef - tr) / hs ** (-d + 1)
    return AsymptoticFit(float(coef[0]), float(coef[1]), tuple(samples),
                         float(np.sqrt(np.mean(resid ** 2))))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one operator-level property check."""

    name: str
    passed: bool
    quantities: dict = field(default_factory=dict)


def berezin_bound_check(domain: LatticeDomain, s: float, phi: np.ndarray,
                        h: float) -> CheckReport:
    """Sharp trace bound: Tr(phi H phi)_- <= bulk * sum phi^2 * dx * h^-d."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (domain.size,):
        raise ValueError("phi must be a per-site weight vector on the block")
    # phi (h^2s A - 1) phi, exactly symmetric as built
    m = np.outer(phi, phi) * build_restricted_fractional(domain, s).entries
    m *= h ** (2.0 * s)
    np.fill_diagonal(m, m.diagonal() - phi ** 2)
    w = np.linalg.eigvalsh(m)
    lhs = float(-w[w < 0].sum())
    # the ambient dimension of the coefficient is the lattice dimension here
    l1 = (bulk_coefficient(FractionalOrder(s, max(domain.dim, 2)))
          if domain.dim >= 2 else _bulk_1d(s))
    rhs = l1 * float(np.sum(phi ** 2)) * domain.spacing ** domain.dim * h ** (-domain.dim)
    return CheckReport("berezin_bound", lhs <= rhs * (1.0 + 1e-12) + 1e-12,
                       {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs})


def _bulk_1d(s: float) -> float:
    # (2 pi)^-1 * |{|p|<1}| momentum integral of (1 - |p|^2s), one dimension
    return 2.0 * s / (math.pi * (2.0 * s + 1.0))


def coherent_state_identity_check(s: float, h: float, p, domain: LatticeDomain,
                                  phi: np.ndarray) -> CheckReport:
    """Both sides of the modulated-state energy identity on the box lattice.

    The wavevector p is snapped to the discrete frequency lattice so the
    shift in Fourier space is exact; the residual gap is then pure
    roundoff.  Reports the homogeneity diagnostic of the leading symbol
    term as well.
    """
    box, dx = domain.box_points, domain.spacing
    if domain.dim != 2:
        raise ValueError("coherent-state check runs on 2-D boxes")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (box, box):
        raise ValueError("phi must be a full-box profile")
    freqs = 2.0 * math.pi * np.fft.fftfreq(box, d=dx)
    p = np.asarray(p, dtype=float)
    ip = [int(np.argmin(np.abs(freqs - pi / h))) for pi in p]
    p_snap = np.array([freqs[i] * h for i in ip])
    sig = _symbol_1d(box, dx)
    mult = (h * h * (sig[:, None] + sig[None, :])) ** s
    x = dx * np.arange(box)
    wave = np.exp(1j * (p_snap[0] * x[:, None] + p_snap[1] * x[None, :]) / h)
    psi_hat = np.fft.fft2(phi * wave)
    lhs = float(np.sum(mult * np.abs(psi_hat) ** 2) / box ** 2 * dx ** 2)
    phi_hat2 = np.abs(np.fft.fft2(phi)) ** 2
    m_shift_plus = np.roll(np.roll(mult, -ip[0], axis=0), -ip[1], axis=1)
    m_shift_minus = np.roll(np.roll(mult, ip[0], axis=0), ip[1], axis=1)
    m0 = mult[ip[0], ip[1]]
    norm2 = float(np.sum(phi ** 2)) * dx ** 2
    second = float(np.sum((0.5 * (m_shift_plus + m_shift_minus) - m0) * phi_hat2)
                   / box ** 2 * dx ** 2)
    rhs = m0 * norm2 + second
    gap = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return CheckReport("coherent_state_identity", gap < 1e-10,
                       {"lhs": lhs, "rhs": rhs, "rel_gap": gap,
                        "first_term": m0 * norm2, "p_snapped": tuple(p_snap),
                        "symbol_at_p": m0})


def operator_order_check(domain: LatticeDomain, s: float) -> CheckReport:
    """Dirichlet power dominates the restricted multiplier: the difference
    is positive semidefinite up to roundoff (exact finite matrix theorem)."""
    diff = (build_dirichlet_power(domain, s).entries
            - build_restricted_fractional(domain, s).entries)
    w = np.linalg.eigvalsh(diff)
    norm = max(float(np.max(np.abs(w))), 1e-300)
    return CheckReport("operator_order", bool(w[0] >= -1e-8 * norm),
                       {"min_eig": float(w[0]), "max_eig": float(w[-1]),
                        "norm": norm})


def halfspace_kernel_check(s: float, h: float,
                           model: HalfLineModel | None = None) -> CheckReport:
    """Half-space law: the diagonal of the negative part along a column off
    a straight edge matches h^-2 (bulk - layer(dist/h)) pointwise.

    Uses a 64 x 64 square of spacing h/6, so its side is 10.7 h; the
    sampled column sits at the horizontal center so the lateral edges stay
    several h away.  The negative part of h^2s A - 1 is spanned by the
    eigenpairs (w, v) of the restricted operator A below h^-2s, each
    weighted by 1 - h^2s w; they are solved in A's own buffer.
    """
    m, spacing = 64, h / 6.0
    domain = rectangle_domain(m, m, spacing)
    order = FractionalOrder(s, 2)
    model = model or HalfLineModel(order)
    op = build_restricted_fractional(domain, s)
    w, v = scipy.linalg.eigh(op.entries.T, subset_by_value=(-np.inf, h ** (-2.0 * s)),
                             overwrite_a=True)  # F-ordered view: solved in place
    coords = domain.coordinates()
    col_x = (m // 2 - 0.5) * spacing
    on_col = np.abs(coords[:, 0] - col_x) < 0.25 * spacing
    dens = ((v ** 2) @ (1.0 - h ** (2.0 * s) * w)) / spacing ** 2
    l1 = bulk_coefficient(order)
    height = m * spacing
    sites = np.nonzero(on_col)[0]
    ratios = coords[sites, 1] / h
    keep = ratios <= height / (2.0 * h)
    sites, ratios = sites[keep], ratios[keep]
    predicted = (l1 - model.boundary_layer(ratios)) / h ** 2
    rel = (dens[sites] - predicted) / (l1 / h ** 2)
    rows = [(coords[i, 1], float(r), float(dens[i]), float(p), float(q))
            for i, r, p, q in zip(sites, ratios, predicted, rel)]
    worst_window = max((abs(r[4]) for r in rows if 0.5 <= r[1] <= 4.0), default=math.inf)
    deep = [r for r in rows if r[1] >= 0.45 * height / h]
    interior_rel = (abs(float(np.mean([r[2] for r in deep])) * h ** 2 / l1 - 1.0)
                    if deep else math.inf)
    return CheckReport("halfspace_kernel", worst_window < 0.10,
                       {"rows": rows, "worst_rel_in_window": worst_window,
                        "interior_rel": interior_rel})


def ims_defect_check(domain: LatticeDomain, s: float, family,
                     resolution: int = 8) -> CheckReport:
    """Localization identity on the lattice singular-kernel form.

    Both sides use the same double-sum quadratic form (diagonal excluded),
    so the identity is exact up to the partition quadrature on the scale
    grid; the reported gap shrinks as ``resolution`` grows.
    """
    if domain.dim != 1:
        raise ValueError("localization defect check is implemented for 1-D blocks")
    box, dx = domain.box_points, domain.spacing
    xs = (np.arange(box) + 0.5) * dx
    idx = domain.indices()[:, 0]
    offset = xs[idx[0]] - 0.5 * dx  # block start aligned with geometry origin
    xg = xs - offset
    cds = c_sd(s, 1)
    diffs = xg[:, None] - xg[None, :]
    with np.errstate(divide="ignore"):
        kern = np.where(np.eye(box, dtype=bool), 0.0,
                        np.abs(diffs) ** (-(1.0 + 2.0 * s)))

    def form(f, g):
        return cds * float((f[:, None] - f[None, :]).ravel()
                           @ (kern * (g[:, None] - g[None, :])).ravel()) * dx * dx

    # three lowest modes of the restricted multiplier operator, zero-extended
    op = build_restricted_fractional(domain, s)
    _, v = scipy.linalg.eigh(op.entries, subset_by_index=[0, 2])
    modes = np.zeros((3, box))
    modes[:, idx] = v.T / math.sqrt(dx)

    us, wu, ls = family.scale_grid(resolution)
    lhs = sum(form(f, f) for f in modes)
    rhs = 0.0
    defect = 0.0
    for u, wgt, l in zip(us, wu, ls):
        phi_u = family.weight(xg[:, None], [u])
        if not np.any(phi_u):
            continue
        fac = wgt / l ** domain.dim
        pairs = (phi_u[:, None] - phi_u[None, :]) ** 2 * kern
        for f in modes:
            rhs += fac * form(phi_u * f, phi_u * f)
            defect += fac * cds * float(f @ pairs @ f) * dx * dx
    gap = abs(lhs - (rhs - defect)) / abs(lhs)
    return CheckReport("ims_defect", gap < 0.05,
                       {"lhs": lhs, "localized_sum": rhs, "defect": defect,
                        "rel_gap": gap})
