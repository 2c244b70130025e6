"""Dense lattice discretizations for desk-scale spectral verification.

A domain is a block of cells: an interval or a rectangle.  One function,
``_multiplier_kernel``, defines the restricted fractional operator P M_s P
on it by its real-space kernel on the block's offset circle.  The dense
build gathers that kernel at every site pair's offset; the matrix-free
apply convolves the block with it on a grid of twice the block, where no
block offset wraps.  The fractional power of the Dirichlet Laplacian is
built from the stencil's closed-form sine eigenbasis, applied one axis at
a time.  On top of the two operators sit Riesz means, two-term fits, and
the operator-level property checks (sharp trace bound, operator ordering,
half-space kernel law).

Two solvers give spectra.  ``eigenvalues_sym`` is the dense reference: it
returns the whole spectrum of a matrix and checks it against the matrix's
trace and Frobenius norm.  ``lowest_spectrum`` never forms a matrix: it
applies the restricted multiplier by that FFT convolution and runs Lanczos
(``eigsh``) for the eigenvalues up to a cut, which is all a Riesz mean at
``h >= cut^(-1/2s)`` reads.  A partial spectrum has no trace to check, so
every pair it returns is residual-checked, and a second Lanczos run on the
operator with those pairs deflated checks that none below the cut was
missed.  Each ``SpectrumResult`` records the cut up to which it is complete,
and ``riesz_mean`` refuses an ``h`` that would read beyond it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse.linalg

from .halfline import FractionalOrder, HalfLineModel
from .constants import bulk_coefficient

__all__ = [
    "LatticeDomain",
    "SymmetricOperator",
    "SpectrumResult",
    "AsymptoticFit",
    "interval_domain",
    "square_domain",
    "build_restricted_fractional",
    "build_dirichlet_power",
    "eigenvalues_sym",
    "lowest_spectrum",
    "riesz_mean",
    "check_h_grid",
    "two_term_fit",
    "berezin_bound_check",
    "operator_order_check",
    "halfspace_kernel_check",
]

DENSE_LIMIT = 4096
#: periodic box side of ``_multiplier_kernel`` over the block's longest side
BOX_MULTIPLE = 3


@dataclass(frozen=True)
class LatticeDomain:
    """Block of cells of side ``spacing``.

    ``cells`` is ``(m,)`` for an interval or ``(mx, my)`` for a rectangle.
    Sites are cell-centered and ordered lexicographically, so a block of m
    cells represents an interval of length m*spacing.
    """

    cells: tuple
    spacing: float

    def __post_init__(self):
        if len(self.cells) not in (1, 2):
            raise ValueError("only 1- and 2-dimensional lattices are supported")
        if min(self.cells) < 1:
            raise ValueError("cell counts must be positive")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def size(self) -> int:
        return math.prod(self.cells)

    @property
    def volume(self) -> float:
        return math.prod(self.cells) * self.spacing ** self.dim

    @property
    def surface(self) -> float:
        """Boundary measure: twice the face of each axis (2 points in 1-D)."""
        return 2 * sum(self.size // c for c in self.cells) * self.spacing ** (self.dim - 1)

    def coordinates(self) -> np.ndarray:
        """Cell-center coordinates relative to the block's lower faces."""
        local = [(np.arange(c, dtype=float) + 0.5) * self.spacing for c in self.cells]
        grids = np.meshgrid(*local, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def interval_domain(m: int) -> LatticeDomain:
    """Unit interval of m cells."""
    return LatticeDomain((m,), 1.0 / m)


def square_domain(m: int) -> LatticeDomain:
    """Unit square of m x m cells."""
    return LatticeDomain((m, m), 1.0 / m)


@dataclass(frozen=True)
class SymmetricOperator:
    entries: np.ndarray

    def __post_init__(self):
        a = self.entries
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues, complete up to ``cut``.

    ``defect`` is what the solver checked: the trace/Frobenius invariant
    defect of a full spectrum (``eigenvalues_sym``, ``cut`` = inf), or the
    largest eigenpair residual norm of a partial one (``lowest_spectrum``).
    """

    eigenvalues: np.ndarray
    defect: float
    cut: float = math.inf

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")


@dataclass(frozen=True)
class AsymptoticFit:
    c0: float
    c1: float
    rms_residual: float


def _multiplier_kernel(domain: LatticeDomain, s: float) -> np.ndarray:
    """Real-space kernel of P M_s P on the block's offset circle, the one
    definition of the restricted fractional operator: the dense build
    gathers it, the matrix-free apply transforms it.

    M_s is the Fourier multiplier, on a periodic box of N = ``BOX_MULTIPLE``
    times the block's longest side, of the discrete symbol

        sigma(k) = sum_j (2 - 2 cos(2 pi k_j / N)) / spacing^2

    raised to the power s; restricting rows and columns to the block
    reproduces the exterior-condition form domain at lattice level.  Across
    the box's wrap, two block sites are at least 2N/3 apart.  That makes
    wrap-around negligible for s = 1 but not for s < 1: the torus has a
    finite exterior, so the killing part of the form is too small and the
    low spectrum is biased low (on (-1, 1), 256 cells, lam_1 is 4.6% below
    its large-box limit at s = 1/2 and 13.7% below at s = 1/4).

    The box kernel is made exactly even (k(-n) == k(n) bitwise), so every
    restriction of it is an exactly symmetric matrix.  Along an axis of c
    cells the block reads offsets -(c-1)..c-1.  The returned array, of
    shape (2c_1, ...), holds offset n mod 2c at entry n: on that circle the
    read offsets stay distinct and exactly even.
    """
    box = BOX_MULTIPLE * max(domain.cells)
    sig = (2.0 - 2.0 * np.cos(2.0 * math.pi * np.arange(box) / box)) / domain.spacing ** 2
    kern = np.fft.ifftn(functools.reduce(np.add.outer, [sig] * domain.dim) ** s).real
    mirrored = np.roll(np.flip(kern), 1, axis=tuple(range(kern.ndim)))
    kern = 0.5 * (kern + mirrored)
    return kern[np.ix_(*(np.r_[0:c, -c:0] % box for c in domain.cells))]


def build_restricted_fractional(domain: LatticeDomain, s: float) -> SymmetricOperator:
    """Block restriction P M_s P of the fractional multiplier.

    With s = 1 it reduces to the Dirichlet stencil up to wrap-around, which
    the box keeps below 1e-10; for s < 1 wrap-around biases the low
    spectrum low (see ``_multiplier_kernel``).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional power must lie in (0, 1]")
    circle = _multiplier_kernel(domain, s)
    # entry (p, q) is the circle at (p - q) mod 2c along each axis: one
    # (c, c) offset table per axis, broadcast over the row axes and then
    # the column axes, gathers it without any n x n index matrix
    dim = domain.dim
    offsets = []
    for k, c in enumerate(domain.cells):
        i = np.arange(c)
        shape = [1] * (2 * dim)
        shape[k] = shape[dim + k] = c
        offsets.append(((i[:, None] - i) % (2 * c)).reshape(shape))
    return SymmetricOperator(circle[tuple(offsets)].reshape(domain.size, domain.size))


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


def _sine_basis(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of the c-cell
    second difference tridiag(-1, 2, -1): w_j = 4 sin^2(pi j / 2(c+1)),
    v_kj = sqrt(2/(c+1)) sin(pi j k / (c+1))."""
    j = np.arange(1, c + 1)
    # j k reduced mod 2(c+1) in integers first: sin of arguments near
    # 800 rad loses about 20x in accuracy
    r = np.outer(j, j) % (2 * (c + 1))
    v = math.sqrt(2.0 / (c + 1)) * np.sin(math.pi / (c + 1) * r)
    w = 4.0 * np.sin(math.pi / (2 * (c + 1)) * j) ** 2
    return w, v


def build_dirichlet_power(domain: LatticeDomain, s: float) -> SymmetricOperator:
    """s-th power of the block's Dirichlet stencil from its closed-form
    eigenbasis V, the tensor product of the 1-D sine bases.

    V diag(w^s) V^T is formed without V: each axis's c x c sine basis is
    applied along its own tensor axis of the rows, once to diag(w^s) and
    once to the transpose of that result, so the cost is O(n^2 sum(cells))
    instead of O(n^3).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional power must lie in (0, 1]")
    if s == 1.0:
        return SymmetricOperator(_dirichlet_stencil(domain))
    ws, vs = zip(*(_sine_basis(c) for c in domain.cells))
    w = functools.reduce(np.add.outer, ws).ravel()

    def apply_basis(x):
        # V x: the rows of x are the block's sites in C order, so this
        # reshape puts site axis i in the middle and one batched matmul
        # applies that axis's basis
        for i, (c, v) in enumerate(zip(domain.cells, vs)):
            x = np.matmul(v, x.reshape(math.prod(domain.cells[:i]), c, -1))
        return x.reshape(domain.size, domain.size)

    out = apply_basis(apply_basis(np.diag((w / domain.spacing ** 2) ** s)).T)
    out = 0.5 * (out + out.T)
    return SymmetricOperator(out)


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


def _block_operator(domain: LatticeDomain, s: float):
    """Matrix-free P M_s P and max|mult|, its norm bound.

    ``_multiplier_kernel`` gives the kernel on a circle of 2c sites per axis
    of c cells, where the block's offsets stay distinct, so convolving the
    zero-padded block with it by ``rfftn`` on that grid is exact: the
    operator of ``build_restricted_fractional`` without its n x n matrix.  The returned function takes a block vector,
    shape (n,), or a block of them, shape (n, k).
    """
    n, cells = domain.size, domain.cells
    grid = tuple(2 * c for c in cells)
    # the kernel is even on the circle up to rounding at the unread offset
    # -c, so its transform is real
    mult = scipy.fft.rfftn(_multiplier_kernel(domain, s)).real
    block = (slice(None),) + tuple(slice(0, c) for c in cells)
    axes = tuple(range(1, domain.dim + 1))

    def apply(x):
        x = np.asarray(x, dtype=float)
        k = x.size // n
        f = scipy.fft.rfftn(x.T.reshape((k,) + cells), s=grid, axes=axes)
        f *= mult
        y = scipy.fft.irfftn(f, s=grid, axes=axes)[block]
        return y.reshape(k, n).T.reshape(x.shape)

    return apply, float(np.abs(mult).max())


#: Lanczos start vectors: fixed seeds keep the partial solves deterministic.
#: A constant start would be D4-symmetric on a square and so orthogonal to
#: every antisymmetric mode.
_LANCZOS_SEED, _DEFLATED_SEED = 0, 1


def lowest_spectrum(domain: LatticeDomain, s: float, cut: float,
                    vectors: bool = False):
    """Ascending eigenvalues ``<= cut`` of the restricted multiplier P M_s P,
    with their eigenvectors (as columns) if ``vectors``, matrix-free.

    Lanczos (``eigsh``, smallest algebraic, tol = 0) on the FFT-applied
    operator starts with 24 eigenpairs and doubles the count until the
    largest is above ``cut``.  ArithmeticError unless every returned pair has
    a residual ``||A v - w v|| <= 1e-10 max|mult|`` and a second Lanczos
    run on ``A + 2 cut V V^T`` (the kept pairs deflated) finds its lowest
    eigenvalue above ``cut``: an eigenvalue the first run missed, such as a
    copy of a degenerate one, would be that lowest eigenvalue.

    Returns a ``SpectrumResult`` complete up to ``cut``, or the pair
    ``(spectrum, eigenvectors)``.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional power must lie in (0, 1]")
    n = domain.size
    apply, top = _block_operator(domain, s)

    def operator(fn):
        return scipy.sparse.linalg.LinearOperator((n, n), matvec=fn, matmat=fn,
                                                  dtype=float)

    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    k = min(24, n - 1)
    while True:
        w, v = scipy.sparse.linalg.eigsh(operator(apply), k=k, which="SA", tol=0, v0=v0)
        if w.max() > cut or k == n - 1:
            break
        k = min(2 * k, n - 1)
    order = np.argsort(w)
    keep = order[w[order] <= cut]
    w, v = w[keep], v[:, keep]
    residual = float(np.linalg.norm(apply(v) - v * w, axis=0).max(initial=0.0))
    if residual > 1e-10 * top:
        raise ArithmeticError(f"eigenpair residual {residual} above 1e-10 * {top}")

    def deflated(x):
        return apply(x) + 2.0 * cut * (v @ (v.T @ x))

    next_w = scipy.sparse.linalg.eigsh(
        operator(deflated), k=2, which="SA", tol=0, return_eigenvectors=False,
        v0=np.random.default_rng(_DEFLATED_SEED).standard_normal(n))
    if not next_w.min() > cut:
        raise ArithmeticError(f"eigenvalue {next_w.min()} at or below the cut {cut} "
                              f"was missed by the {w.size} returned")
    spectrum = SpectrumResult(w, residual, cut)
    return (spectrum, v) if vectors else spectrum


def riesz_mean(spectrum: SpectrumResult, h: float, s: float) -> float:
    """Sum of (1 - h^2s * lam)_+ over the spectrum; ValueError if that reads
    eigenvalues up to an h^-2s beyond the cut the spectrum is complete to."""
    if not h > 0:
        raise ValueError("h must be positive")
    if h ** (-2.0 * s) > spectrum.cut:
        raise ValueError(f"h = {h} reads eigenvalues up to {h ** (-2.0 * s)}, "
                         f"beyond the spectrum's cut {spectrum.cut}")
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
    return AsymptoticFit(float(coef[0]), float(coef[1]),
                         float(np.sqrt(np.mean(resid ** 2))))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one operator-level property check."""

    passed: bool
    quantities: dict


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
    w = eigenvalues_sym(SymmetricOperator(m)).eigenvalues
    lhs = float(-w[w < 0].sum())
    # L1 in the lattice's own dimension; in 1-D its closed form is 2s/(pi(2s+1))
    l1 = (bulk_coefficient(FractionalOrder(s, 2)) if domain.dim == 2
          else 2.0 * s / (math.pi * (2.0 * s + 1.0)))
    rhs = l1 * float(np.sum(phi ** 2)) * domain.spacing ** domain.dim * h ** (-domain.dim)
    return CheckReport(lhs <= rhs * (1.0 + 1e-12) + 1e-12,
                       {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs})


def operator_order_check(domain: LatticeDomain, s: float) -> CheckReport:
    """Dirichlet power dominates the restricted multiplier: the difference
    is positive semidefinite up to roundoff (exact finite matrix theorem)."""
    diff = (build_dirichlet_power(domain, s).entries
            - build_restricted_fractional(domain, s).entries)
    w = eigenvalues_sym(SymmetricOperator(diff)).eigenvalues
    norm = max(-float(w[0]), float(w[-1]), 1e-300)
    return CheckReport(bool(w[0] >= -1e-8 * norm),
                       {"min_eig": float(w[0]), "max_eig": float(w[-1]),
                        "norm": norm})


def halfspace_kernel_check(s: float, h: float,
                           model: HalfLineModel | None = None) -> CheckReport:
    """Half-space law: the diagonal of the negative part along a column off
    a straight edge matches h^-2 (bulk - layer(dist/h)) pointwise.

    Uses a 64 x 64 square of spacing h/6, so its side is 10.7 h; the
    sampled column sits at the horizontal center so the lateral edges stay
    several h away.  The negative part of h^2s A - 1 is spanned by the
    eigenpairs (w, v) of the restricted operator A up to h^-2s, each
    weighted by 1 - h^2s w; ``lowest_spectrum`` gives them, checked for
    residuals and completeness, without forming A.
    """
    m, spacing = 64, h / 6.0
    domain = LatticeDomain((m, m), spacing)
    order = FractionalOrder(s, 2)
    model = model or HalfLineModel(order)
    spectrum, v = lowest_spectrum(domain, s, h ** (-2.0 * s), vectors=True)
    w = spectrum.eigenvalues
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
    return CheckReport(worst_window < 0.10,
                       {"rows": rows, "worst_rel_in_window": worst_window,
                        "interior_rel": interior_rel})
