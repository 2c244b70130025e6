"""Dense lattice discretizations for desk-scale spectral verification.

The fractional operator is realized on a periodic box as a Fourier
multiplier in the discrete symbol

    sigma(k) = sum_j (2 - 2 cos(2 pi k_j / N)) / spacing^2,

raised to the power s; restricting rows and columns to a mask of interior
sites reproduces the exterior-condition form domain at lattice level.
Masks keep a margin of a third of the box, which makes wrap-around
negligible for s = 1 but not for s < 1: the torus has a finite exterior,
so the killing part of the form is too small and the low spectrum is
biased low (on (-1, 1), 256 cells, lam_1 is 4.6% below its large-box
limit at s = 1/2 and 13.7% below at s = 1/4).  The fractional power of
the Dirichlet Laplacian is built by eigendecomposition of the masked
stencil.  On top of the two operators sit Riesz means, two-term fits, and
the operator-level property checks (sharp trace bound, coherent-state
identity, operator ordering, half-space kernel law, localization defect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


class MarginError(ValueError):
    """Mask sits too close to the periodic box boundary."""


@dataclass(frozen=True)
class LatticeDomain:
    """Masked grid inside a periodic embedding box.

    Sites are cell-centered: a 1-D mask of m cells starting at index i0
    represents the interval of length m*spacing.  ``volume`` and
    ``surface`` default to the cell-counting estimates; ideal-shape
    constructors override them with the continuum values.
    """

    dim: int
    box_points: int
    spacing: float
    mask: tuple  # tuple of index tuples, sorted
    volume: float
    surface: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only 1- and 2-dimensional lattices are supported")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        idx = np.asarray(self.mask)
        if idx.ndim != 2 or idx.shape[1] != self.dim:
            raise ValueError("mask must be a sequence of index tuples")
        lo = idx.min(axis=0)
        hi = idx.max(axis=0)
        margin = min(int(lo.min()), int(self.box_points - 1 - hi.max()))
        if margin < self.box_points / 3 - 1:
            raise MarginError(
                f"mask margin {margin} below box/3 = {self.box_points / 3:.1f}; "
                "enlarge the box to suppress wrap-around")

    @property
    def size(self) -> int:
        return len(self.mask)

    def indices(self) -> np.ndarray:
        return np.asarray(self.mask, dtype=np.int64)

    def coordinates(self) -> np.ndarray:
        """Cell-center coordinates relative to the first mask cell's face."""
        idx = self.indices().astype(float)
        origin = idx.min(axis=0)
        return (idx - origin + 0.5) * self.spacing


def _mask_estimates(idx: np.ndarray, dim: int, spacing: float):
    cells = {tuple(row) for row in idx}
    volume = len(cells) * spacing ** dim
    faces = 0
    offsets = [(1,), (-1,)] if dim == 1 else [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for cell in cells:
        for off in offsets:
            nb = tuple(c + o for c, o in zip(cell, off))
            if nb not in cells:
                faces += 1
    surface = faces * spacing ** (dim - 1)
    return volume, surface


def _make_domain(idx, dim, box_points, spacing, volume=None, surface=None):
    idx = np.asarray(sorted(tuple(map(int, row)) for row in idx), dtype=np.int64)
    vol_est, surf_est = _mask_estimates(idx, dim, spacing)
    return LatticeDomain(
        dim=dim, box_points=box_points, spacing=spacing,
        mask=tuple(map(tuple, idx.tolist())),
        volume=vol_est if volume is None else volume,
        surface=surf_est if surface is None else surface)


def interval_domain(m: int, spacing: float | None = None, box_factor: int = 3,
                    length: float = 1.0) -> LatticeDomain:
    """Interval of m interior cells; ideal length defaults to 1."""
    spacing = length / m if spacing is None else spacing
    box = box_factor * m
    start = (box - m) // 2
    idx = [(start + i,) for i in range(m)]
    return _make_domain(idx, 1, box, spacing, volume=m * spacing, surface=2.0)


def rectangle_domain(mx: int, my: int, spacing: float, box_factor: int = 3,
                     ideal: bool = True) -> LatticeDomain:
    box = box_factor * max(mx, my)
    sx = (box - mx) // 2
    sy = (box - my) // 2
    idx = [(sx + i, sy + j) for i in range(mx) for j in range(my)]
    vol = mx * my * spacing ** 2 if ideal else None
    surf = 2.0 * (mx + my) * spacing if ideal else None
    return _make_domain(idx, 2, box, spacing, volume=vol, surface=surf)


def square_domain(m: int, side: float = 1.0, box_factor: int = 3) -> LatticeDomain:
    """Ideal unit-side square: m x m cells, continuum volume and perimeter."""
    return rectangle_domain(m, m, side / m, box_factor=box_factor, ideal=True)


@dataclass(frozen=True)
class SymmetricOperator:
    n: int
    entries: np.ndarray

    def __post_init__(self):
        a = self.entries
        if a.shape != (self.n, self.n):
            raise ValueError("entries shape mismatch")
        asym = float(np.max(np.abs(a - a.T))) if self.n else 0.0
        scale = max(float(np.max(np.abs(a))), 1e-300)
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix asymmetry {asym} exceeds tolerance")


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
    """Mask restriction of the periodic-box fractional multiplier.

    The matrix is the compression P M_s P of the periodic-box operator.
    With s = 1 it reduces to the Dirichlet stencil up to wrap-around,
    which the margin invariant keeps below 1e-10; for s < 1 wrap-around
    biases the low spectrum low (see the module docstring).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional power must lie in (0, 1]")
    kern = _multiplier_kernel(domain, s)
    idx = domain.indices()
    if domain.dim == 1:
        diff = (idx[:, 0][:, None] - idx[:, 0][None, :]) % domain.box_points
        a = kern[diff]
    else:
        d0 = (idx[:, 0][:, None] - idx[:, 0][None, :]) % domain.box_points
        d1 = (idx[:, 1][:, None] - idx[:, 1][None, :]) % domain.box_points
        a = kern[d0, d1]
    return SymmetricOperator(domain.size, a)


def _dirichlet_stencil(domain: LatticeDomain) -> np.ndarray:
    idx = domain.indices()
    n = domain.size
    pos = {tuple(row): i for i, row in enumerate(idx.tolist())}
    a = np.zeros((n, n))
    inv_h2 = 1.0 / domain.spacing ** 2
    np.fill_diagonal(a, 2.0 * domain.dim * inv_h2)
    offsets = [(1,), (-1,)] if domain.dim == 1 else [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for cell, i in pos.items():
        for off in offsets:
            j = pos.get(tuple(c + o for c, o in zip(cell, off)))
            if j is not None:
                a[i, j] = -inv_h2
    return a


def build_dirichlet_power(domain: LatticeDomain, s: float) -> SymmetricOperator:
    """s-th power of the masked Dirichlet stencil via eigendecomposition."""
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


def _shifted_hamiltonian(op: SymmetricOperator, h: float, s: float) -> np.ndarray:
    return h ** (2.0 * s) * op.entries - np.eye(op.n)


def berezin_bound_check(domain: LatticeDomain, s: float, phi: np.ndarray,
                        h: float) -> CheckReport:
    """Sharp trace bound: Tr(phi H phi)_- <= bulk * sum phi^2 * dx * h^-d."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (domain.size,):
        raise ValueError("phi must be a per-site weight vector on the mask")
    op = build_restricted_fractional(domain, s)
    m = phi[:, None] * _shifted_hamiltonian(op, h, s) * phi[None, :]
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
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
    w = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    norm = max(float(np.max(np.abs(w))), 1e-300)
    return CheckReport("operator_order", bool(w[0] >= -1e-8 * norm),
                       {"min_eig": float(w[0]), "max_eig": float(w[-1]),
                        "norm": norm})


def halfspace_kernel_check(s: float, h: float, mx: int = 64, my: int = 64,
                           spacing: float | None = None,
                           model: HalfLineModel | None = None) -> CheckReport:
    """Half-space law: the diagonal of the negative part along a column off
    a straight edge matches h^-2 (bulk - layer(dist/h)) pointwise.

    Uses a wide rectangle; the sampled column sits at the horizontal
    center so the lateral edges stay several h away.
    """
    spacing = spacing or h / 6.0
    domain = rectangle_domain(mx, my, spacing)
    order = FractionalOrder(s, 2)
    model = model or HalfLineModel(order)
    op = build_restricted_fractional(domain, s)
    ham = _shifted_hamiltonian(op, h, s)
    w, v = np.linalg.eigh(ham)
    neg = w < 0
    coords = domain.coordinates()
    col_x = (mx // 2 - 0.5) * spacing
    on_col = np.abs(coords[:, 0] - col_x) < 0.25 * spacing
    dens = ((v[:, neg] ** 2) @ (-w[neg])) / spacing ** 2
    l1 = bulk_coefficient(order)
    height = my * spacing
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
                     resolution: int = 8, rank: int = 3) -> CheckReport:
    """Localization identity on the lattice singular-kernel form.

    Both sides use the same double-sum quadratic form (diagonal excluded),
    so the identity is exact up to the partition quadrature on the scale
    grid; the reported gap shrinks as ``resolution`` grows.
    """
    if domain.dim != 1:
        raise ValueError("localization defect check is implemented for 1-D masks")
    box, dx = domain.box_points, domain.spacing
    xs = (np.arange(box) + 0.5) * dx
    idx = domain.indices()[:, 0]
    offset = xs[idx[0]] - 0.5 * dx  # mask start aligned with geometry origin
    xg = xs - offset
    cds = c_sd(s, 1)
    diffs = xg[:, None] - xg[None, :]
    with np.errstate(divide="ignore"):
        kern = np.where(np.eye(box, dtype=bool), 0.0,
                        np.abs(diffs) ** (-(1.0 + 2.0 * s)))

    def form(f, g):
        return cds * float((f[:, None] - f[None, :]).ravel()
                           @ (kern * (g[:, None] - g[None, :])).ravel()) * dx * dx

    # rank lowest modes of the restricted multiplier operator, zero-extended
    op = build_restricted_fractional(domain, s)
    w, v = np.linalg.eigh(op.entries)
    modes = np.zeros((rank, box))
    for r in range(rank):
        modes[r, idx] = v[:, r] / math.sqrt(dx)

    us, wu, ls = family.scale_grid(resolution)
    lhs = sum(form(f, f) for f in modes)
    rhs = 0.0
    defect = 0.0
    for u, wgt, l in zip(us, wu, ls):
        phi_u = family.weight(xg[:, None], [u])
        if not np.any(phi_u):
            continue
        fac = wgt / l ** domain.dim
        for f in modes:
            rhs += fac * form(phi_u * f, phi_u * f)
            pairs = (phi_u[:, None] - phi_u[None, :]) ** 2 * kern
            defect += fac * cds * float(f @ pairs @ f) * dx * dx
    gap = abs(lhs - (rhs - defect)) / abs(lhs)
    return CheckReport("ims_defect", gap < 0.05,
                       {"lhs": lhs, "localized_sum": rhs, "defect": defect,
                        "rel_gap": gap})
