"""Periodic grids, spectral fields, and FFT-based differential operators.

The unbounded domain is modeled by a large periodic box; initial fields are
expected to sit at their far-field values near the box boundary (the solver
checks this, not these primitives).  All differential operators act in
Fourier space and are exact for band-limited inputs; all norms use the flat
quadrature weight ``(L/n)**dim`` per sample, which is spectrally accurate
for periodic integrands.

Fields are real, so every spectral computation (the steppers, the
differential operators, the Sobolev norms, the dyadic blocks and the
calibration corpora) uses numpy's real transforms (``Grid.rfft``/
``Grid.irfft``) on the half lattice whose last axis keeps only the modes
``0..n/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

__all__ = [
    "FieldError",
    "PositivityError",
    "Grid",
    "make_grid",
    "ScalarField",
    "VectorField",
    "constant_field",
    "gradient",
    "divergence",
    "laplacian",
    "gradient_energy",
    "hessian_energy",
    "sqrt_field",
    "power_field",
    "lp_norm",
    "sup_norm",
    "integral",
    "l2_norm",
    "spectral_l2_norm",
    "sobolev_norm",
    "hs_norm",
    "random_band_limited",
    "write_snapshot",
    "read_snapshot",
]


class FieldError(ValueError):
    """Invalid grid or field construction, or an ill-posed field operation."""


class PositivityError(FieldError):
    """A field that must be strictly positive is not."""


# the width, in cells, of the rim of the box that stands in for the far field
_RIM_CELLS = 2

# the exponent range, on either side of 1, in which derived powers are kept:
# exp() of it neither overflows nor leaves the normal floats
_LOG_RANGE = 700.0


def _fft_friendly(n: int) -> bool:
    # even, at least 8, prime factors restricted to 2 and 3
    if n < 8 or n % 2 != 0:
        return False
    m = n
    for p in (2, 3):
        while m % p == 0:
            m //= p
    return m == 1


def _on_axis(vec: np.ndarray, axis: int, dim: int) -> np.ndarray:
    s = [1] * dim
    s[axis] = vec.size
    return vec.reshape(s)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box in 2 or 3 dimensions.

    Carries the frequencies ``xi = (2*pi/L) * m``, ``m in {-n/2, ..., n/2-1}``
    per axis, the quadrature cell volume, and the symbols on the half lattice
    of the real transforms, chosen so that ``irfft(symbol * rfft(f))`` equals,
    to round-off, the real part of the same symbol applied on the full complex
    lattice:
    ``rwavevectors`` (``xi_i``, zero on the Nyquist mode ``m_i = -n/2``),
    ``rsecond[i][j]`` (``xi_i xi_j``, zero where exactly one axis sits at its
    Nyquist mode), both special cases of ``rmonomial``, then ``rk2``, the
    2/3-rule ``rdealias_mask`` shared by all nonlinear products, and the
    Parseval weights ``rweight`` (1 on the zero and Nyquist columns of the
    last axis, 2 on the conjugate-pair columns).  ``rim_mask`` marks the cells
    within two of a face of the box, where the far-field check reads a state.

    The mask keeps, per axis, the modes ``|m| <= n/3``: the index blocks
    ``0..n/3`` and ``n-n/3..n-1``, and on the half axis ``0..n/3``, so the
    dealiased transforms (``rfft``/``irfft`` with ``dealias``) skip the lines
    it zeroes.
    """

    dim: int
    n: int
    box_length: float
    far_field_density: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise FieldError(f"unsupported dimension {self.dim} (2 and 3 only)")
        if not _fft_friendly(self.n):
            raise FieldError(
                f"grid resolution {self.n} unsupported: need an even product "
                "of powers of 2 and 3, at least 8"
            )
        if not (self.box_length > 0 and math.isfinite(self.box_length)):
            raise FieldError(f"box length must be positive and finite, got {self.box_length!r}")
        if not (self.far_field_density > 0 and math.isfinite(self.far_field_density)):
            raise FieldError(f"far-field density must be positive and finite, got {self.far_field_density!r}")

        n, L, dim = self.n, float(self.box_length), self.dim
        # the powers of the box the lattice forms must be finite and nonzero
        log_dx = math.log(L) - math.log(n)
        log_k = 0.5 * math.log(dim) + math.log(math.pi) - log_dx  # |xi| of the top mode
        if not (dim * math.log(L) < _LOG_RANGE and dim * log_dx > -_LOG_RANGE and 6.0 * log_k < _LOG_RANGE):
            raise FieldError(
                f"box length {L:g} out of range for n = {n}: the volume L^d, the cell volume dx^d "
                f"and the H^3 weight |xi|^6 of the top mode must lie within e^(+-{_LOG_RANGE:g})"
            )
        try:
            self._build_symbols()
        except MemoryError:
            raise FieldError(
                f"grid n = {n} in {dim}D does not fit in memory: one field holds "
                f"{n**dim} values, {8 * n**dim} bytes"
            ) from None

    def _build_symbols(self) -> None:
        n, L, dim = self.n, float(self.box_length), self.dim
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
        nyq = n // 2  # fftfreq puts the mode -n/2 at this index
        keep = np.abs(np.rint(np.fft.fftfreq(n) * n)) <= n // 3
        zeroed, nyquist, mask = [], [], True
        for i in range(dim):
            # the last axis of a real transform keeps the columns 0..n/2
            cut = slice(None) if i < dim - 1 else slice(nyq + 1)
            kz, kn = k1[cut].copy(), np.zeros_like(k1[cut])
            kz[nyq], kn[nyq] = 0.0, k1[nyq]
            zeroed.append(_on_axis(kz, i, dim))
            nyquist.append(_on_axis(kn, i, dim))
            mask = mask & _on_axis(keep[cut], i, dim)
        object.__setattr__(self, "rwavevectors", tuple(zeroed))
        object.__setattr__(self, "_rnyquist", tuple(nyquist))
        unit = np.eye(dim, dtype=int)
        second = tuple(tuple(self.rmonomial(unit[i] + unit[j]) for j in range(dim)) for i in range(dim))
        weight = np.full(nyq + 1, 2.0)
        weight[0] = weight[nyq] = 1.0

        # built with the symbols, before a run allocates its fields, so that
        # it never sits in the heap between them
        index = np.arange(n)
        edge = (index < _RIM_CELLS) | (index >= n - _RIM_CELLS)
        rim = reduce(np.logical_or, (_on_axis(edge, i, dim) for i in range(dim)))

        x1 = np.arange(n) * (L / n)
        object.__setattr__(self, "shape", (n,) * dim)
        object.__setattr__(self, "frequencies", k1)
        object.__setattr__(self, "rsecond", second)
        object.__setattr__(self, "rk2", sum(second[i][i] for i in range(dim)))
        object.__setattr__(self, "rdealias_mask", mask)
        object.__setattr__(self, "rweight", _on_axis(weight, dim - 1, dim))
        object.__setattr__(self, "cell_volume", (L / n) ** dim)
        object.__setattr__(self, "volume", L**dim)
        object.__setattr__(self, "dx", L / n)
        object.__setattr__(self, "coordinates", x1)
        object.__setattr__(self, "rim_mask", rim)

        # the lines along axis a that sit at kept modes on every later axis:
        # the only ones a dealiased transform takes along a
        cut = n // 3 + 1
        blocks = (slice(cut), slice(n - n // 3, n))
        lines = tuple(
            tuple((slice(None),) * (a + 1) + later + (slice(cut),) for later in product(blocks, repeat=dim - 2 - a))
            for a in range(dim - 1)
        )
        object.__setattr__(self, "_dealias_cut", (cut, n - n // 3))
        object.__setattr__(self, "_kept_lines", lines)

    def rfft(self, values: np.ndarray, dealias: bool = False) -> np.ndarray:
        """Half-lattice spectrum of real samples, in one new array (without
        ``out``, numpy allocates one per axis).

        With ``dealias``, the spectrum times ``rdealias_mask``, zero outside
        it.  The last axis is transformed in full and cut at n/3; each leading
        axis, in the order ``numpy.fft.rfftn`` takes them, only on the lines
        that sit at kept modes on the axes already transformed, and then cut.
        Each kept mode goes through the same 1D transforms, so it is the same
        bit for bit as in the full spectrum.
        """
        out = np.empty(self.shape[:-1] + (self.n // 2 + 1,), complex)
        if not dealias:
            return np.fft.rfftn(values, out=out)
        cut, top = self._dealias_cut
        np.fft.rfft(values, axis=-1, out=out)
        out[..., cut:] = 0.0
        for axis in range(self.dim - 2, -1, -1):
            for lines in self._kept_lines[axis]:
                part = out[lines]
                np.fft.fft(part, axis=axis, out=part)
            out[(slice(None),) * axis + (slice(cut, top),)] = 0.0
        return out

    def irfft(self, hat: np.ndarray, out: np.ndarray | None = None, dealias: bool = False) -> np.ndarray:
        """Real samples of a half-lattice spectrum, written into ``out`` if given.

        Overwrites ``hat``: its leading axes are transformed in its own
        storage, then its last axis into the real output, the axes in the
        order ``numpy.fft.irfftn`` takes them, so the samples are the same
        bit for bit and the output is the only new array (``irfftn``
        allocates one complex intermediate per leading axis).  A caller that
        reads the spectrum again passes a copy.  With ``dealias``, for a
        spectrum zero outside ``rdealias_mask``, each leading axis is
        transformed only on the lines that sit at kept modes on the axes not
        yet transformed: the others are zero, and stay so.
        """
        for axis in range(self.dim - 1):
            for lines in self._kept_lines[axis] if dealias else (Ellipsis,):
                part = hat[lines]
                np.fft.ifft(part, axis=axis, out=part)
        return np.fft.irfft(hat, n=self.n, axis=-1, out=out)

    def rmonomial(self, alpha) -> np.ndarray:
        """``xi^alpha`` on the half lattice, for a multi-index with ``|alpha| >= 1``.

        With it, ``irfft(1j**|alpha| * rmonomial(alpha) * rfft(f))`` is the
        real part of ``1j**|alpha| * xi^alpha`` applied on the full complex
        lattice.  A Nyquist mode is its own mirror image, so that real part
        averages the symbol with its conjugate at the mirrored mode: the
        monomial survives where the orders ``alpha_a`` of the axes sitting at
        their Nyquist mode have an even sum, and cancels elsewhere.  Zeroing
        the Nyquist mode of each axis with odd ``alpha_a`` on its own is wrong
        for mixed indices such as (1, 1).
        """
        axes = [a for a in range(self.dim) if alpha[a]]
        terms = []
        # the zeroed and Nyquist parts of an axis have disjoint supports
        for at_nyquist in product((False, True), repeat=len(axes)):
            if sum(alpha[a] for a, nyq in zip(axes, at_nyquist) if nyq) % 2:
                continue
            factors = [
                (self._rnyquist if nyq else self.rwavevectors)[a] ** alpha[a]
                for a, nyq in zip(axes, at_nyquist)
            ]
            terms.append(reduce(np.multiply, factors))
        return reduce(np.add, terms)

    def meshgrid(self):
        """Real-space coordinate arrays, one per axis, 'ij' indexed."""
        return np.meshgrid(*([self.coordinates] * self.dim), indexing="ij")


def make_grid(dim: int, n: int, box_length: float, far_field_density: float) -> Grid:
    return Grid(dim, n, box_length, far_field_density)


def _total(terms) -> np.ndarray:
    """The sum of the fresh arrays ``terms``, added in order into the first one's storage.

    The one way a sum over field components is formed: numpy's sum of the
    stacked terms over axis 0 adds them in the same order, so the floats are
    the same bit for bit, without the stack.
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
        del term
    return total


def _trusted(cls, **attrs):
    """An instance of the frozen dataclass ``cls`` with exactly ``attrs``, built
    without ``__post_init__``: for values the caller has already checked as the
    constructor would (dtype float64, shape, finiteness, positivity)."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real-space samples of a scalar on a grid; finite by construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise FieldError(f"value shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise FieldError("field contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class VectorField:
    """dim scalar components sharing one grid, stored as a (dim, n, ...) array."""

    grid: Grid
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=np.float64)
        if c.shape != (self.grid.dim,) + self.grid.shape:
            raise FieldError(
                f"component shape {c.shape} does not match grid "
                f"{(self.grid.dim,) + self.grid.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise FieldError("field contains non-finite values")
        object.__setattr__(self, "components", c)

    def component(self, i: int) -> ScalarField:
        # a view of components that the constructor has already checked
        return _trusted(ScalarField, grid=self.grid, values=self.components[i])


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


# ----------------------------------------------------------------------
# spectral differential operators


def gradient(f: ScalarField) -> VectorField:
    grid = f.grid
    hat = grid.rfft(f.values)
    comps = np.empty((grid.dim,) + grid.shape)
    for i, k in enumerate(grid.rwavevectors):
        comps[i] = grid.irfft(1j * k * hat)
    return VectorField(grid, comps)


def divergence(F: VectorField) -> ScalarField:
    grid = F.grid
    out = sum(1j * k * grid.rfft(c) for k, c in zip(grid.rwavevectors, F.components))
    return ScalarField(grid, grid.irfft(out))


def laplacian(f: ScalarField) -> ScalarField:
    grid = f.grid
    return ScalarField(grid, grid.irfft(-grid.rk2 * grid.rfft(f.values)))


# ----------------------------------------------------------------------
# composite maps (require strict positivity where the math does)


def _require_positive(f: ScalarField, what: str) -> None:
    m = float(np.min(f.values))
    if m <= 0.0:
        loc = tuple(int(i) for i in np.unravel_index(int(np.argmin(f.values)), f.values.shape))
        raise PositivityError(
            f"density not strictly positive: min {m:.6e} at index {loc} ({what})"
        )


def sqrt_field(f: ScalarField) -> ScalarField:
    _require_positive(f, "sqrt")
    return ScalarField(f.grid, np.sqrt(f.values))


def power_field(f: ScalarField, alpha: float) -> ScalarField:
    a = float(alpha)
    if a != int(a):
        _require_positive(f, f"power {a:g}")
    elif a < 0 and np.any(f.values == 0.0):
        raise PositivityError(f"zero entry under negative power {a:g}")
    return ScalarField(f.grid, f.values**a)


# ----------------------------------------------------------------------
# quadrature, norms


def integral(f: ScalarField) -> float:
    return float(np.sum(f.values) * f.grid.cell_volume)


def lp_norm(f: ScalarField, p: float) -> float:
    if p == np.inf:
        return sup_norm(f)
    if p < 1:
        raise FieldError(f"lp_norm requires p >= 1, got {p}")
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p))


def sup_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


def l2_norm(f: ScalarField) -> float:
    return lp_norm(f, 2)


def _spectral_quadrature(grid: Grid, hat: np.ndarray, symbol) -> float:
    """Quadrature of sum symbol * |hat|^2 over the full lattice (Parseval)."""
    power = grid.rweight * (hat.real**2 + hat.imag**2)
    return float(np.sum(symbol * power) * grid.cell_volume / float(np.prod(grid.shape)))


def _parseval(f: ScalarField, symbol) -> float:
    """sqrt of the quadrature of sum symbol * |hat f|^2 over the full lattice."""
    return float(np.sqrt(_spectral_quadrature(f.grid, f.grid.rfft(f.values), symbol)))


def gradient_energy(grid: Grid, hat: np.ndarray) -> float:
    """Integral of |grad f|^2 from the half-lattice spectrum of f, with no inverse transform.

    The symbol is sum_i rwavevectors[i]^2, the one ``gradient`` applies, so
    this equals the quadrature of ``gradient(f).components**2`` to round-off.
    ``rk2`` would not: it keeps the Nyquist modes, which ``gradient`` zeroes.
    """
    return _spectral_quadrature(grid, hat, sum(k * k for k in grid.rwavevectors))


def hessian_energy(grid: Grid, hat: np.ndarray) -> float:
    """Integral of |hess f|^2 from the half-lattice spectrum of f, with no inverse transform.

    The symbol is sum_ij rsecond[i][j]^2, so this equals the quadrature of the
    second derivatives ``irfft(-rsecond[i][j] * rfft(f))`` squared to
    round-off.  ``rk2**2`` would not: it keeps the mixed products where exactly
    one axis sits at its Nyquist mode, which ``rsecond`` zeroes.
    """
    d = grid.dim
    symbol = sum(grid.rsecond[i][j] ** 2 for i in range(d) for j in range(d))
    return _spectral_quadrature(grid, hat, symbol)


def spectral_l2_norm(f: ScalarField) -> float:
    """L2 norm evaluated on the Fourier side (Parseval route)."""
    return _parseval(f, 1.0)


def sobolev_norm(f: ScalarField, k: int) -> float:
    """H^k norm with spectral weight sum_{m<=k} |xi|^(2m)."""
    if k < 0 or k != int(k):
        raise FieldError(f"sobolev_norm requires integer k >= 0, got {k}")
    k2 = f.grid.rk2
    return _parseval(f, sum(k2**m for m in range(int(k) + 1)))


def hs_norm(f: ScalarField, s: float) -> float:
    """Fractional Sobolev norm with weight (1 + |xi|^2)^s."""
    return _parseval(f, (1.0 + f.grid.rk2) ** s)


# ----------------------------------------------------------------------
# seeded random fields


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    max_mode: int | None = None,
    amplitude: float = 1.0,
) -> ScalarField:
    """White noise low-passed to radial mode index <= max_mode, sup-normalized.

    Deterministic for a given generator state; band-limited well inside the
    dealias region by default (max_mode = n // 6).
    """
    if max_mode is None:
        max_mode = grid.n // 6
    white = rng.standard_normal(grid.shape)
    hat = grid.rfft(white)
    scale = 2.0 * np.pi / grid.box_length
    hat[grid.rk2 / scale**2 > max_mode**2] = 0.0
    v = grid.irfft(hat)
    m = np.max(np.abs(v))
    if m > 0:
        v = v * (amplitude / m)
    return ScalarField(grid, v)


# ----------------------------------------------------------------------
# snapshot files: one scalar field per file
#   header line "NSKF1 dim n L rho_bar t", then little-endian float64,
#   row-major

_MAGIC = "NSKF1"


def write_snapshot(f: ScalarField, t: float, path) -> None:
    g = f.grid
    header = f"{_MAGIC} {g.dim} {g.n} {g.box_length:.17g} {g.far_field_density:.17g} {t:.17g}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[ScalarField, float]:
    with open(path, "rb") as fh:
        try:
            header = fh.readline().decode("ascii").split()
            if len(header) != 6 or header[0] != _MAGIC:
                raise ValueError("bad header")
            dim, n = int(header[1]), int(header[2])
            box_length, rho_bar, t = (float(x) for x in header[3:6])
        except ValueError as err:  # UnicodeDecodeError included
            raise FieldError(f"not a {_MAGIC} snapshot: {path} ({err})") from None
        grid = Grid(dim, n, box_length, rho_bar)
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != n**dim:
        raise FieldError(f"snapshot payload has {raw.size} values, expected {n**dim}")
    return ScalarField(grid, raw.reshape(grid.shape).copy()), t
