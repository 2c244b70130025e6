"""Dense lattice discretizations for desk-scale spectral verification.

A domain is a block of cells: an interval or a rectangle.  One function,
``_multiplier_kernel``, defines the restricted fractional operator P M_s P
on it by its real-space kernel on the block's offset circle.  The dense
build gathers that kernel at every site pair's offset.  The fractional
power of the Dirichlet Laplacian is built from the stencil's closed-form
sine eigenbasis, applied one axis at a time.  On top of the two operators
sit Riesz means, two-term fits, and the operator-level property checks
(operator ordering, half-space kernel law); the sharp trace bound is read
off the Riesz means by ``fracweyl verify-square``.

Both operators commute with the reflection of each axis, so each splits
into 2^d reflection-parity blocks of about n/2^d sites; ``_ParityHalf``
describes one parity of one axis, once for every use.  The ordering check
builds the blocks of the difference straight from the kernel and the sine
modes (``_parity_block``) and solves each on its own, forming neither
n x n matrix; on a square it and the Lanczos solver solve the two
mixed-parity blocks, mirror images of each other, once
(``_distinct_blocks``).  The matrix-free apply of a block
(``_parity_operator``) is four matrix products with one closed-form mode
matrix per axis (``_ParityHalf.fourier_modes``), of about the block's side
in frequencies by half of it in sites, where a convolution of the whole
block needs twice the side.

Two solvers give spectra.  ``eigenvalues_sym`` is the dense reference: it
returns the whole spectrum of a matrix and checks it against the matrix's
trace and Frobenius norm.  ``lowest_spectrum`` never forms an n x n matrix:
it runs Lanczos (``eigsh``) on each parity block's matrix-free apply for
the eigenvalues up to a cut, which is all a Riesz mean at
``h >= cut^(-1/2s)`` reads.  A partial spectrum has no trace to check, so
every pair it returns is residual-checked, and a second Lanczos run for
the one lowest eigenvalue of the block with those pairs deflated checks
that none below the cut was missed.  The first run of each block asks for a
few more pairs than the block's closed-form Dirichlet-power count below the
cut, which by the ordering D^s >= P M_s P is a lower bound on its own.
Each ``SpectrumResult`` records the cut up to which it is complete, and
``riesz_mean`` refuses an ``h`` that would read beyond it.  Each ``eigsh``
runs with scipy's OpenBLAS pool held to one thread (``_one_blas_thread``).
ARPACK is the library's only caller of scipy's BLAS and gains nothing from
a second thread, its vectors being one parity block long (1,024 sites on
64^2); a worker it wakes keeps spinning after the solve and slows the
threaded products of numpy's own OpenBLAS, which runs every matvec and
dense solve and is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg.cython_blas
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
    read offsets stay distinct and exactly even.  ValueError unless
    0 < s <= 1.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("fractional power must lie in (0, 1]")
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
    return SymmetricOperator(_restrict(_multiplier_kernel(domain, s)))


def _restrict(circle: np.ndarray) -> np.ndarray:
    """Block matrix of a kernel given on the block's offset circle, shape
    (2c_1, ...): entry (p, q) is the circle at (p - q) mod 2c along each
    axis."""
    tables = []
    for n in circle.shape:
        i = np.arange(n // 2)
        tables.append((i[:, None] - i) % n)
    return _gather(circle, tables)


def _gather(circle: np.ndarray, tables) -> np.ndarray:
    """The circle at one (r_k, r_k) offset table per axis, as a square
    matrix over the rows r_1 x r_2 x ... in C order.  Each table is
    broadcast over the row axes and then the column axes, so no
    matrix-sized index array is formed."""
    dim = len(tables)
    index = []
    for k, t in enumerate(tables):
        shape = [1] * (2 * dim)
        shape[k] = shape[dim + k] = t.shape[0]
        index.append(t.reshape(shape))
    n = math.prod(t.shape[0] for t in tables)
    return circle[tuple(index)].reshape(n, n)


def _stencil_circle(domain: LatticeDomain) -> np.ndarray:
    """Kernel of the negative lattice Laplacian (2 dim on the centre, -1 at
    each axis neighbour, over spacing^2) on the block's offset circle; its
    block restriction is the Dirichlet stencil."""
    inv_h2 = 1.0 / domain.spacing ** 2
    circle = np.zeros(tuple(2 * c for c in domain.cells))
    for k in range(domain.dim):
        for step in (1, -1):
            circle[tuple(step if a == k else 0 for a in range(domain.dim))] = -inv_h2
    circle[(0,) * domain.dim] = 2.0 * domain.dim * inv_h2
    return circle


def _sine_values(c: int) -> np.ndarray:
    """Eigenvalues w_j = 4 sin^2(pi j / 2(c+1)), j = 1..c, of the c-cell
    second difference tridiag(-1, 2, -1)."""
    return 4.0 * np.sin(math.pi / (2 * (c + 1)) * np.arange(1, c + 1)) ** 2


def _sine_basis(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (``_sine_values``) and orthonormal eigenvectors (columns)
    of the c-cell second difference: v_kj = sqrt(2/(c+1)) sin(pi j k / (c+1))."""
    j = np.arange(1, c + 1)
    # j k reduced mod 2(c+1) in integers first: sin of arguments near
    # 800 rad loses about 20x in accuracy
    r = np.outer(j, j) % (2 * (c + 1))
    v = math.sqrt(2.0 / (c + 1)) * np.sin(math.pi / (c + 1) * r)
    return _sine_values(c), v


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
        return SymmetricOperator(_restrict(_stencil_circle(domain)))
    ws, vs = zip(*(_sine_basis(c) for c in domain.cells))
    return SymmetricOperator(_basis_power(ws, vs, domain.spacing, s))


def _basis_power(ws, vs, spacing: float, s: float) -> np.ndarray:
    """V diag((w / spacing^2)^s) V^T, made exactly symmetric, for V the
    tensor product of the per-axis orthonormal bases ``vs`` (square, modes
    as columns) with eigenvalues ``ws``."""
    rows = tuple(v.shape[0] for v in vs)
    n = math.prod(rows)
    w = functools.reduce(np.add.outer, ws).ravel()

    def apply_basis(x):
        # V x: the rows of x are sites in C order, so this reshape puts
        # site axis i in the middle and one batched matmul applies that
        # axis's basis
        for i, (r, v) in enumerate(zip(rows, vs)):
            x = np.matmul(v, x.reshape(math.prod(rows[:i]), r, -1))
        return x.reshape(n, n)

    out = apply_basis(apply_basis(np.diag((w / spacing ** 2) ** s)).T)
    return 0.5 * (out + out.T)


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


class _ParityHalf(NamedTuple):
    """One reflection parity (+1 or -1) of a c-cell axis.

    Its orthonormal basis is (e_i + parity e_(c-1-i))/sqrt(2) over the
    sites i of the axis's upper half, counted from the centre outward; when
    c is odd the even half starts with e_centre instead.  ``scale`` is
    sqrt(2) on each site, 1 on that centre.

    An axis-even kernel K on the block's offset circle of 2c sites acts on
    the half as K(i - j) + parity K(i + j - (c-1)).  With u_i = i - (c-1)/2
    the site's distance from the axis centre, that is K(u_i - u_j) +
    parity K(u_i + u_j), and writing K by its discrete Fourier transform on
    the circle folds it into sum_f Khat(f) G[f, i] G[f, j] over ``freqs``,
    the frequencies 0..c at which the half's cosines (parity +1) or sines
    (parity -1) do not vanish: about c of them, where a convolution of the
    whole block needs 2c.  ``fourier_modes`` gives G.
    """

    cells: int
    parity: int
    sites: np.ndarray
    scale: np.ndarray
    freqs: np.ndarray

    def offsets(self, mirrored: bool) -> np.ndarray:
        """Offset table into the circle: direct (i - j) or mirrored
        (i + j - (c-1)), mod 2c."""
        i = self.sites
        t = i[:, None] + i - (self.cells - 1) if mirrored else i[:, None] - i
        return t % (2 * self.cells)

    def basis(self) -> np.ndarray:
        """The basis vectors as columns, shape (c, sites)."""
        e = np.zeros((self.cells, self.sites.size))
        cols = np.arange(self.sites.size)
        e[self.cells - 1 - self.sites, cols] = self.parity / self.scale
        e[self.sites, cols] = 1.0 / self.scale
        return e

    def sine_values(self) -> np.ndarray:
        """Eigenvalues of the c-cell sine modes of this parity, ascending
        (mode j has parity (-1)^(j+1))."""
        return _sine_values(self.cells)[self._modes()]

    def sine_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """``sine_values`` and the rows in this basis of those modes."""
        w, v = _sine_basis(self.cells)
        modes = self._modes()
        return w[modes], v[self.sites, modes] * self.scale[:, None]

    def _modes(self) -> slice:
        """The sine modes of this parity among j = 1..c, as a slice."""
        return slice(0 if self.parity > 0 else 1, None, 2)

    def fourier_modes(self) -> np.ndarray:
        """The (freqs, sites) mode matrix G: scale_i sqrt(v_f / 2c) times
        cos(pi f u_i / c) for parity +1 or sin for -1, with v_f = 1 at
        f = 0 and f = c and 2 between.  Its columns are orthonormal, and an
        axis-even kernel's block on this half is G^T diag(Khat(freqs)) G."""
        c = self.cells
        # f u_i / c reduced mod 2 in integers first, as in _sine_basis
        phase = np.outer(self.freqs, 2 * self.sites - (c - 1)) % (4 * c)
        wave = np.cos if self.parity > 0 else np.sin
        fold = np.where((self.freqs == 0) | (self.freqs == c), 1.0, 2.0)
        return np.sqrt(fold / (2 * c))[:, None] * wave(math.pi / (2 * c) * phase) * self.scale


def _parity_half(c: int, parity: int) -> _ParityHalf:
    """The half of parity +1 or -1 of a c-cell axis; empty for parity -1
    of a single cell."""
    sites = np.arange(c // 2 if parity > 0 else (c + 1) // 2, c)
    scale = np.full(sites.size, math.sqrt(2.0))
    if c % 2:
        if parity > 0:
            scale[0] = 1.0
        freqs = np.arange(c + 1) if parity > 0 else np.arange(1, c)
    else:
        freqs = np.arange(c) if parity > 0 else np.arange(1, c + 1)
    return _ParityHalf(c, parity, sites, scale, freqs)


def _parity_halves(domain: LatticeDomain) -> list:
    """Both halves (+1 first) of each axis."""
    return [[_parity_half(c, p) for p in (1, -1)] for c in domain.cells]


def _even_circle(domain: LatticeDomain, s: float) -> np.ndarray:
    """``_multiplier_kernel``, checked even along each axis to 1e-12 of its
    largest entry: the reflection-parity split would drop the coupling of
    an odd part.  ArithmeticError otherwise."""
    circle = _multiplier_kernel(domain, s)
    for k in range(domain.dim):
        odd = float(np.abs(circle - np.roll(np.flip(circle, k), 1, k)).max())
        if odd > 1e-12 * np.abs(circle).max():
            raise ArithmeticError(f"multiplier kernel is odd along axis {k} by {odd}, "
                                  f"above 1e-12 of its largest entry")
    return circle


def _parity_block(circle: np.ndarray, halves) -> np.ndarray:
    """Dense block of the operator with an axis-even kernel on the block's
    offset circle in the reflection-parity basis of one half per axis:
    along each axis of parity p the entry is K(i - j) + p K(i + j - (c-1)),
    times the row weights scale/sqrt(2).  The reference of
    ``_parity_operator``."""
    out = 0.0
    for pick in itertools.product((False, True), repeat=len(halves)):
        sign = math.prod(h.parity for h, mirrored in zip(halves, pick) if mirrored)
        out = out + sign * _gather(circle, [h.offsets(m) for h, m in zip(halves, pick)])
    weight = functools.reduce(np.multiply.outer,
                              [h.scale / math.sqrt(2.0) for h in halves]).ravel()
    out *= np.multiply.outer(weight, weight)
    # a kernel even along each axis only up to rounding leaves the terms
    # that mix direct and mirrored axes symmetric only up to rounding
    return 0.5 * (out + out.T)


def _parity_operator(spectrum: np.ndarray, halves):
    """Matrix-free block of P M_s P in the basis of one half per axis.

    ``spectrum`` is the real ``rfftn`` of the even circle kernel, and
    ``mult`` its values at the halves' frequencies.  With G_k the mode
    matrix of axis k's half (``_ParityHalf.fourier_modes``), the block is
    (G_1 x G_2)^T diag(mult) (G_1 x G_2), so a block vector X, shaped
    (sites_1, sites_2), maps to G_1^T (mult * (G_1 X G_2^T)) G_2: four
    matrix products, 12 (c/2)^3 multiply-adds on a c x c square
    (G_1^T (mult * G_1 x) in 1-D).  The returned function takes a block
    vector, shape (n,), or a block of them, shape (n, k).
    """
    shape = tuple(h.sites.size for h in halves)
    n = math.prod(shape)
    mult = spectrum[np.ix_(*(h.freqs for h in halves))]
    modes = [h.fourier_modes() for h in halves]

    def apply(x):
        x = np.asarray(x, dtype=float)
        k = x.size // n
        # a stack of k blocks, (k, sites_1[, sites_2]): the first of two
        # axes is multiplied from the left, the last from the right
        y = x.T.reshape((k,) + shape)
        for g in modes[:-1]:
            y = np.matmul(g, y)
        y = np.matmul(y, modes[-1].T)
        y *= mult
        for g in modes[:-1]:
            y = np.matmul(g.T, y)
        y = np.matmul(y, modes[-1])
        return y.reshape(k, n).T.reshape(x.shape)

    return apply


#: Lanczos start vectors: fixed seeds keep the partial solves deterministic.
#: A constant start would be D4-symmetric on a square and so orthogonal to
#: every antisymmetric mode.
_LANCZOS_SEED, _DEFLATED_SEED = 0, 1
#: Eigenpairs the first Lanczos run of a block asks for beyond the block's
#: Dirichlet-power count below the cut (``_dirichlet_count``).  On every
#: block of 64^2, 128^2, the 31 x 20 rectangle and the 256-cell interval at
#: s = .25/.5/.75 the lattice count was 0-2 above that floor.
_LANCZOS_MARGIN = 6


@functools.cache
def _scipy_blas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS that scipy's
    BLAS, and so ARPACK, calls, or None where none resolves (MKL,
    Accelerate).  The library is opened through ``scipy.linalg.cython_blas``,
    which ``scipy.sparse.linalg`` has already loaded; numpy's own OpenBLAS is
    another library and is not reached."""
    try:
        blas = ctypes.CDLL(scipy.linalg.cython_blas.__file__, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        try:
            get = getattr(blas, prefix + "_get_num_threads")
            set_ = getattr(blas, prefix + "_set_num_threads")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS pool (``_scipy_blas_threads``) to one thread
    and give it back its previous count on exit, by return or by raise;
    without an OpenBLAS handle, do nothing.  Each ``eigsh`` runs inside it
    (see the module docstring)."""
    threads = _scipy_blas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _distinct_blocks(domain: LatticeDomain):
    """The nonempty reflection-parity blocks, one half per axis, as
    ``(halves, mirrored)``.

    On a square the (-1, +1) block is the x <-> y mirror image of the
    (+1, -1) block, for P M_s P and D^s alike: the same spectrum, with the
    vectors' site grid transposed.  It is not yielded; ``mirrored`` is
    True on the (+1, -1) block, which stands for both.
    """
    square = domain.dim == 2 and domain.cells[0] == domain.cells[1]
    for halves in itertools.product(*_parity_halves(domain)):
        parities = tuple(h.parity for h in halves)
        if not all(h.sites.size for h in halves) or (square and parities == (-1, 1)):
            continue
        yield halves, square and parities == (1, -1)


def _dirichlet_count(halves, spacing: float, s: float, cut: float) -> int:
    """Number of eigenvalues (sum_k w_k / spacing^2)^s <= ``cut`` of the
    Dirichlet power's block in the basis of ``halves``: the sums of one sine
    eigenvalue of each half's parity up to cut^(1/s) spacing^2.

    D^s >= P M_s P block by block (A6), so by min-max the block of P M_s P
    has at least this many eigenvalues at or below ``cut``.
    """
    total = functools.reduce(np.add.outer, [h.sine_values() for h in halves])
    return int(np.count_nonzero(total <= max(cut, 0.0) ** (1.0 / s) * spacing ** 2))


def lowest_spectrum(domain: LatticeDomain, s: float, cut: float,
                    vectors: bool = False):
    """Ascending eigenvalues ``<= cut`` of the restricted multiplier P M_s P,
    with their eigenvectors (as columns) if ``vectors``, matrix-free.

    P M_s P commutes with the reflection of each axis, so it is solved on
    its 2^d reflection-parity blocks one at a time, each applied by
    ``_parity_operator`` with its own mode matrix per axis.  On a
    square the (-1, +1) block reuses the eigenvalues of its mirror image,
    the (+1, -1) block, with the vectors transposed (``_distinct_blocks``).

    Per block, Lanczos (``eigsh``, smallest algebraic, tol = 0) starts with
    ``_LANCZOS_MARGIN`` more eigenpairs than the block's Dirichlet-power
    count below ``cut`` (``_dirichlet_count``, a lower bound on the block's
    own count) and doubles the count until the largest is above ``cut``;
    a block too small for that (the count would reach its size less one)
    is solved whole by a dense ``eigh`` of ``_parity_block``.
    ArithmeticError unless every pair kept has a residual
    ``||A v - w v|| <= 1e-10 max|mult|`` and, after Lanczos, a second run
    for the single lowest eigenvalue of the block's ``A + 2 cut V V^T``
    (the kept pairs deflated) finds it above ``cut``: an eigenvalue the
    first run missed, such as a copy of a degenerate one, would be that
    lowest eigenvalue.  The block spectra are merged in ascending order,
    and the vectors expanded to normalized site vectors of the whole block.
    Each Lanczos run holds scipy's OpenBLAS pool, the one ARPACK calls, to
    one thread and restores its count after, also on a raise
    (``_one_blas_thread``); ARPACK loses nothing by it, since its vectors
    are one block long and the matvec runs on numpy's BLAS.

    Returns a ``SpectrumResult`` complete up to ``cut``, whose ``defect`` is
    the largest block residual, or the pair ``(spectrum, eigenvectors)``.
    """
    circle = _even_circle(domain, s)
    # the kernel is even on the circle up to rounding at the unread offset
    # -c, so its transform is real
    spectrum = np.fft.rfftn(circle).real
    top = float(np.abs(spectrum).max())
    values, columns, defect = [], [], 0.0
    for halves, mirrored in _distinct_blocks(domain):
        floor = _dirichlet_count(halves, domain.spacing, s, cut)
        w, v, residual = _block_spectrum(circle, spectrum, top, halves, cut, floor)
        defect = max(defect, residual)
        values += [w, w] if mirrored else [w]
        if vectors:
            v = _expand(halves, v)
            columns.append(v)
            if mirrored:
                c, k = domain.cells[0], v.shape[1]
                columns.append(v.reshape(c, c, k).transpose(1, 0, 2).reshape(domain.size, k))
    w = np.concatenate(values)
    order = np.argsort(w, kind="stable")
    result = SpectrumResult(w[order], defect, cut)
    return (result, np.concatenate(columns, axis=1)[:, order]) if vectors else result


def _block_spectrum(circle, spectrum, top, halves, cut, floor):
    """Checked eigenpairs ``<= cut`` of one parity block, of which there are
    at least ``floor`` (``_dirichlet_count``), and their largest residual;
    see ``lowest_spectrum``."""
    apply = _parity_operator(spectrum, halves)
    n = math.prod(h.sites.size for h in halves)

    def operator(fn):
        return scipy.sparse.linalg.LinearOperator((n, n), matvec=fn, matmat=fn,
                                                  dtype=float)

    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    k = floor + _LANCZOS_MARGIN
    while k < n - 1:
        with _one_blas_thread():
            w, v = scipy.sparse.linalg.eigsh(operator(apply), k=k, which="SA", tol=0, v0=v0)
        if w.max() > cut:
            break
        k *= 2
    else:
        # too few sites for Lanczos to reach the cut: every pair, densely
        w, v = np.linalg.eigh(_parity_block(circle, halves))
    order = np.argsort(w)
    keep = order[w[order] <= cut]
    w, v = w[keep], v[:, keep]
    residual = float(np.linalg.norm(apply(v) - v * w, axis=0).max(initial=0.0))
    if residual > 1e-10 * top:
        raise ArithmeticError(f"eigenpair residual {residual} above 1e-10 * {top}")
    if k >= n - 1:
        # nothing of a dense solve is left to deflate
        return w, v, residual

    def deflated(x):
        return apply(x) + 2.0 * cut * (v @ (v.T @ x))

    with _one_blas_thread():
        (next_w,) = scipy.sparse.linalg.eigsh(
            operator(deflated), k=1, which="SA", tol=0, return_eigenvectors=False,
            v0=np.random.default_rng(_DEFLATED_SEED).standard_normal(n))
    if not next_w > cut:
        raise ArithmeticError(f"eigenvalue {next_w} at or below the cut {cut} "
                              f"was missed by the {w.size} returned")
    return w, v, residual


def _expand(halves, v: np.ndarray) -> np.ndarray:
    """Block vectors (columns) as site vectors of the whole block."""
    x = v.reshape(tuple(h.sites.size for h in halves) + v.shape[1:])
    for axis, h in enumerate(halves):
        x = np.moveaxis(np.tensordot(h.basis(), x, axes=(1, axis)), 0, axis)
    return x.reshape(math.prod(h.cells for h in halves), v.shape[1])


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


def operator_order_check(domain: LatticeDomain, s: float) -> CheckReport:
    """Dirichlet power dominates the restricted multiplier: the difference
    is positive semidefinite up to roundoff (exact finite matrix theorem).
    ValueError unless 0 < s < 1.

    Both operators commute with the reflection i -> c-1-i of each axis: the
    multiplier kernel is even in each axis offset, and the sine modes have
    definite parity.  In the reflection-parity bases of ``_ParityHalf`` the
    difference is block diagonal, with 2^d blocks of about n/2^d sites, so
    each block is built directly and checked by ``eigenvalues_sym`` on its
    own; no n x n matrix is formed.  On a square the (-1, +1) block is the
    mirror image of the (+1, -1) block and is not solved again
    (``_distinct_blocks``).  ArithmeticError if the kernel is not
    even along each axis to 1e-12 of its largest entry, since the split
    would then drop a coupling.

    The check passes when the lowest eigenvalue is at least -1e-8 norm,
    with norm the largest eigenvalue modulus of the difference.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("the order check takes a fractional power in (0, 1)")
    circle = _even_circle(domain, s)
    lo, hi = math.inf, -math.inf
    for halves, _ in _distinct_blocks(domain):
        ws, us = zip(*(h.sine_modes() for h in halves))
        diff = _basis_power(ws, us, domain.spacing, s) - _parity_block(circle, halves)
        w = eigenvalues_sym(SymmetricOperator(diff)).eigenvalues
        lo, hi = min(lo, float(w[0])), max(hi, float(w[-1]))
    norm = max(-lo, hi, 1e-300)
    return CheckReport(bool(lo >= -1e-8 * norm),
                       {"min_eig": lo, "max_eig": hi, "norm": norm})


def halfspace_kernel_check(s: float, h: float) -> CheckReport:
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
    model = HalfLineModel(FractionalOrder(s, 2))
    spectrum, v = lowest_spectrum(domain, s, h ** (-2.0 * s), vectors=True)
    w = spectrum.eigenvalues
    # the column of cells m//2 - 1 along the first axis; sites run in C
    # order, the second axis fastest, and y is each cell centre's height
    sites = (m // 2 - 1) * m + np.arange(m)
    y = (np.arange(m) + 0.5) * spacing
    dens = ((v ** 2) @ (1.0 - h ** (2.0 * s) * w)) / spacing ** 2
    l1 = bulk_coefficient(model.order)
    height = m * spacing
    ratios = y / h
    keep = ratios <= height / (2.0 * h)
    sites, y, ratios = sites[keep], y[keep], ratios[keep]
    predicted = (l1 - model.boundary_layer(ratios)) / h ** 2
    rel = (dens[sites] - predicted) / (l1 / h ** 2)
    rows = [(yi, float(r), float(dens[i]), float(p), float(q))
            for yi, i, r, p, q in zip(y, sites, ratios, predicted, rel)]
    worst_window = max((abs(r[4]) for r in rows if 0.5 <= r[1] <= 4.0), default=math.inf)
    deep = [r for r in rows if r[1] >= 0.45 * height / h]
    interior_rel = (abs(float(np.mean([r[2] for r in deep])) * h ** 2 / l1 - 1.0)
                    if deep else math.inf)
    return CheckReport(worst_window < 0.10,
                       {"rows": rows, "worst_rel_in_window": worst_window,
                        "interior_rel": interior_rel})
