"""Holographic vector algebra: atoms, binding, superposition, cleanup-ready probes.

Expressions in this package are real vectors of a fixed dimension n.  Atoms are
drawn i.i.d. normal with variance 1/n so their expected norm is 1.  Structure is
built with circular convolution (binding) and elementwise addition
(superposition), and taken apart with an approximate inverse based on index
reversal.  ``to_coords`` maps a vector to orthonormal real Fourier
coordinates, where binding is the elementwise ``bind_coords``; the codec and
evaluation sessions hold their vectors there, with atoms from
``AtomRegistry.coords``.  All operations are deterministic given a registry seed.
"""
from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

KEY_PREFIX = 32  # entries of a vector its bytes indexes hash: 256 bytes, not 16 KB at dim 2048

__all__ = [
    "Vector",
    "Thresholds",
    "AtomRegistry",
    "Permutation",
    "DimensionMismatch",
    "DegenerateVector",
    "bytes_key",
    "bind",
    "to_coords",
    "from_coords",
    "bind_coords",
    "involution",
    "unbind",
    "similarity",
    "normalize",
    "cascade",
]


class DimensionMismatch(ValueError):
    """Raised when an operation combines vectors of different dimensions."""


class DegenerateVector(ValueError):
    """Raised on normalization of a zero vector."""


@dataclass(frozen=True)
class Thresholds:
    """Saturation band for the lazy cascade: full above theta_up, empty below theta_down."""

    theta_up: float = 0.8
    theta_down: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 < self.theta_up <= 1.0):
            raise ValueError("theta_up must lie in (0, 1]")
        if not (0.0 <= self.theta_down < 1.0):
            raise ValueError("theta_down must lie in [0, 1)")
        if self.theta_down >= self.theta_up:
            raise ValueError("theta_down must be strictly below theta_up")


def bytes_key(v: Vector) -> int:
    """The bytes-index key of ``v``: the hash of its first ``KEY_PREFIX`` entries' bytes.

    Equal keys do not prove equal vectors, so every index confirms a candidate
    in full.
    """
    return hash(v[:KEY_PREFIX].tobytes())


def _seed_material(seed: int, dim: int, name: str) -> int:
    digest = hashlib.blake2b(f"{seed}|{dim}|{name}".encode(), digest_size=16).digest()
    return int.from_bytes(digest, "little")


class AtomRegistry:
    """Deterministic name-to-vector table.

    Each vector is derived from (seed, dim, name) alone, so the mapping does not
    depend on insertion order and two registries with the same seed agree on
    every name they share.  Lookups cache the drawn vector, and ``coords``
    caches its ``to_coords`` coordinates.
    """

    def __init__(self, dim: int = 2048, seed: int = 0) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.seed = int(seed)
        self._entries: dict[str, Vector] = {}
        # bytes_key of an atom -> the names drawn with that key, in draw order
        self._by_bytes: dict[int, list[str]] = {}
        # name -> its atom's coordinates, and their bytes_key -> the names
        # converted with that key
        self._coords: dict[str, Vector] = {}
        self._names: dict[int, list[str]] = {}
        self._lock = threading.Lock()
        # From the first ``nearest`` scan on: the atoms in draw order, stacked
        # into rows [0, _filled) of ``_table``, and their norms in ``_norms``;
        # later scans copy new atoms in, growing both when full.
        self._table: Vector | None = None
        self._norms: Vector | None = None
        self._filled = 0

    def vector(self, name: str) -> Vector:
        """Return the atom vector for ``name``, drawing and caching it on first use."""
        got = self._entries.get(name)
        if got is not None:
            return got
        with self._lock:
            got = self._entries.get(name)
            if got is None:
                rng = np.random.default_rng(_seed_material(self.seed, self.dim, name))
                got = rng.normal(0.0, 1.0 / np.sqrt(self.dim), self.dim)
                got.flags.writeable = False
                self._entries[name] = got
                self._by_bytes.setdefault(bytes_key(got), []).append(name)
        return got

    def coords(self, name: str) -> Vector:
        """The read-only ``to_coords`` of the atom ``name``: converted once, one object per name."""
        got = self._coords.get(name)
        if got is not None:
            return got
        v = self.vector(name)
        with self._lock:
            got = self._coords.get(name)
            if got is None:
                got = self._coords[name] = to_coords(v)
                got.flags.writeable = False
                self._names.setdefault(bytes_key(got), []).append(name)
        return got

    def name(self, x: Vector) -> str:
        """The atom nearest coordinates ``x``: by bytes for a ``coords`` vector or its copy, else by a scan."""
        for name in self._names.get(bytes_key(x), ()):
            held = self._coords[name]
            if held is x or np.array_equal(held, x):
                return name
        return self.nearest(from_coords(x))[0]

    def names(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def _snapshot(self) -> tuple[list[str], Vector, Vector]:
        """The names in draw order, the stacked atoms and their norms; atoms drawn since the last call join now."""
        with self._lock:
            names, filled = list(self._entries), self._filled
            m = len(names)
            if self._table is None or len(self._table) < m:
                table, norms = np.empty((max(16, 2 * m), self.dim)), np.empty(max(16, 2 * m))
                if filled:
                    table[:filled], norms[:filled] = self._table[:filled], self._norms[:filled]
                self._table, self._norms = table, norms
            if filled < m:
                self._table[filled:m] = [self._entries[k] for k in names[filled:]]
                self._norms[filled:m] = np.linalg.norm(self._table[filled:m], axis=1)
                self._filled = m
            return names, self._table[:m], self._norms[:m]

    def nearest(self, v: Vector) -> tuple[str, float]:
        """Name and cosine similarity of the registry atom most similar to ``v``.

        An atom vector itself, bitwise, is found without a scan and scores 1.0.
        """
        if not self._entries:
            raise KeyError("empty atom registry")
        for name in self._by_bytes.get(bytes_key(v), ()):
            if np.array_equal(self._entries[name], v):
                return name, 1.0
        names, matrix, atom_norms = self._snapshot()
        norms = atom_norms * np.linalg.norm(v)
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(norms > 0.0, matrix @ v / norms, 0.0)
        best = int(np.argmax(sims))
        return names[best], float(sims[best])


class Permutation:
    """Seeded index shuffle with an exact inverse."""

    def __init__(self, dim: int, seed: int = 0) -> None:
        rng = np.random.default_rng(_seed_material(seed, dim, "#permutation"))
        self.dim = dim
        self.indices = rng.permutation(dim)
        self._inverse = np.argsort(self.indices)

    def forward(self, v: Vector) -> Vector:
        _check_dim(v, self.dim)
        return v[self.indices]

    def inverse(self, v: Vector) -> Vector:
        _check_dim(v, self.dim)
        return v[self._inverse]


def _check_dim(v: Vector, dim: int) -> None:
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected dimension {dim}, got shape {v.shape}")


def bind(u: Vector, v: Vector) -> Vector:
    """Circular convolution of ``u`` and ``v``.

    Computed through the real FFT, which matches the naive O(n^2) sum to within
    accumulated rounding (well under 1e-9 for the dimensions used here) and is
    exactly commutative.
    """
    if u.ndim != 1 or v.shape != u.shape:
        raise DimensionMismatch(f"cannot bind shape {v.shape} to shape {u.shape}")
    fu, fv = np.fft.rfft(u), np.fft.rfft(v)
    # The complex multiply ufunc may fuse with FMA, which breaks bitwise
    # symmetry under operand swap; the split form commutes exactly because
    # IEEE multiplication and addition each do.
    spec = np.empty(fu.shape, dtype=complex)
    spec.real = fu.real * fv.real - fu.imag * fv.imag
    spec.imag = fu.real * fv.imag + fu.imag * fv.real
    return np.fft.irfft(spec, n=u.shape[0])


def _reals(n: int) -> int:
    """How many real entries lead the coordinates of length ``n``: DC, and Nyquist when ``n`` is even."""
    return 2 - n % 2


def _middle(x: Vector) -> np.ndarray:
    """The middle bins of coordinates ``x``, as a complex view of its memory or of a contiguous copy."""
    return np.ascontiguousarray(x)[..., _reals(x.shape[-1]) :].view(complex)


def to_coords(u: Vector) -> Vector:
    """``u`` in the orthonormal real Fourier basis, for one vector or a stack of shape (..., n).

    From ``U = rfft(u)`` the layout is ``[U_0, U_{n/2}, Re U_1, Im U_1, ...]``,
    with ``U_0`` and ``U_{n/2}`` scaled by ``1/sqrt(n)`` and the middle bins by
    ``sqrt(2/n)``; an odd ``n`` has no ``U_{n/2}`` entry.  The map is
    orthogonal, so norms, dot products and cosines are those of ``u``, and it
    turns ``bind`` into the elementwise ``bind_coords``.
    """
    n = u.shape[-1]
    s = _reals(n)
    f = np.fft.rfft(u)
    x = np.empty(u.shape)
    x[..., :s] = f[..., [0, n // 2][:s]].real / math.sqrt(n)
    _middle(x)[...] = f[..., 1 : (n + 1) // 2] * math.sqrt(2 / n)
    return x


def from_coords(x: Vector) -> Vector:
    """The inverse of ``to_coords``."""
    n = x.shape[-1]
    f = np.empty(x.shape[:-1] + (n // 2 + 1,), dtype=complex)
    s = _reals(n)
    f[..., [0, n // 2][:s]] = x[..., :s] * math.sqrt(n)
    f[..., 1 : (n + 1) // 2] = _middle(x) * math.sqrt(n / 2)
    return np.fft.irfft(f, n=n)


def bind_coords(x: Vector, y: Vector) -> Vector:
    """``to_coords(bind(u, v))`` from ``x = to_coords(u)`` and ``y = to_coords(v)``, with no FFT.

    Either operand may be a stack of shape (..., n); the two broadcast.
    """
    n = x.shape[-1]
    if y.shape[-1:] != (n,):
        raise DimensionMismatch(f"cannot bind shape {y.shape} to shape {x.shape}")
    s = _reals(n)
    middle = _middle(x) * _middle(y)
    out = np.empty(middle.shape[:-1] + (n,))
    np.multiply(x[..., :s] * y[..., :s], math.sqrt(n), out=out[..., :s])
    np.multiply(middle, math.sqrt(n / 2), out=_middle(out))
    return out


def involution(u: Vector) -> Vector:
    """Index-reversal involution: component i maps to component (-i) mod n."""
    return np.roll(u[::-1], 1)


def unbind(u: Vector, w: Vector) -> Vector:
    """Approximate inverse of binding: recover v from bind(u, v) up to noise."""
    return bind(involution(u), w)


_EPS = float(np.finfo(np.float64).eps)
# Norm products of equal vectors in this range come from squared norms that
# neither overflow nor lose more than a tiny fraction of an ulp to underflow.
_NORM2_MIN, _NORM2_MAX = 1e-300, 1e300


def similarity(u: Vector, v: Vector) -> float | np.ndarray:
    """Cosine similarity in [-1, 1]; zero whenever either operand has zero norm.

    Either operand may also be a stack of vectors, of shape (..., n), and the
    two broadcast against each other: the result is then the array of the
    pairs' similarities, each bitwise the float that two vectors give.
    """
    # Stacks take the array form below, which tests hold bitwise to this
    # scalar body.  One pair keeps the scalar body: the array form makes about
    # twice as many numpy calls per pair, and on the recursion benchmark,
    # which makes about 100k one-pair calls per pass, it lowered the median
    # ops_per_s of 10 runs by 13% (2-vCPU VM, one BLAS thread).
    if u.ndim > 1 or v.ndim > 1:
        return _similarities(u, v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"operand shapes differ: {u.shape} vs {v.shape}")
    # For a 1-D float64 vector, sqrt of the dot product is bitwise np.linalg.norm.
    nu = math.sqrt(u @ u)
    nv = math.sqrt(v @ v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    d = nu * nv
    # A numpy scalar division: inf, NaN and underflow come out as numpy's.
    s = float((u @ v) / d)
    # Equal vectors must score exactly 1.0; the quotient can round to one ulp
    # under it, which downstream gate logic treats as meaningful.  For equal
    # vectors whose norm product lies in the guarded range, the three dot
    # products and the sqrt, product and quotient together err by at most
    # about (dim + 2) eps, a quarter of the band checked here; outside that
    # range, or for a NaN quotient, the comparison always runs.
    if not (abs(s - 1.0) > 4 * (u.shape[0] + 2) * _EPS and _NORM2_MIN < d < _NORM2_MAX):
        if u is v or np.array_equal(u, v):
            return 1.0
    return max(min(s, 1.0), -1.0)  # in this order a NaN passes through, as in np.clip


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u[i] @ v[i]`` for every pair of vectors of two broadcast stacks.

    matmul takes each 1 x n by n x 1 product through the dot routine that
    ``u[i] @ v[i]`` uses, so every entry is bitwise that dot product.
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _similarities(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``similarity`` of every pair of vectors of two broadcast stacks."""
    if u.shape[-1:] != v.shape[-1:]:
        raise DimensionMismatch(f"operand dimensions differ: {u.shape} vs {v.shape}")
    nu = np.sqrt(_dots(u, u))
    nv = np.sqrt(_dots(v, v))
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.clip(_dots(u, v) / (nu * nv), -1.0, 1.0)
    sims[(u == v).all(axis=-1)] = 1.0
    sims[(nu == 0.0) | (nv == 0.0)] = 0.0
    return sims


def normalize(v: Vector) -> Vector:
    """Scale the vector ``v`` to unit norm."""
    n = math.sqrt(v @ v)  # bitwise np.linalg.norm of a 1-D float64 vector
    if n == 0.0:
        raise DegenerateVector("degenerate normalization of a zero vector")
    return v / n


def cascade(
    alternatives: Iterable[tuple[Callable[[], float], Callable[[], Vector]]],
    default: Callable[[], Vector],
    t: Thresholds,
) -> Vector:
    """Saturating lazy superposition of gated alternatives.

    Every gate and payload is a deferred computation, pulled one pair at a
    time.  A gate below ``t.theta_down`` in magnitude skips its payload, which
    is never forced; otherwise the alternative is ``gate * payload()``, and a
    unit gate returns the payload object itself.  The first alternative whose
    norm exceeds ``t.theta_up`` ends the cascade: no later gate, payload or
    ``default`` is forced.  One whose norm falls below ``t.theta_down`` is
    dropped.  One in between is kept and blended back, innermost first, as
    ``normalize(kept + rest)``, where ``rest`` is what the cascade after it
    returned (``default()`` when it ran out).  Errors propagate only from
    computations that were actually forced.
    """
    kept: list[Vector] = []
    for gate, payload in alternatives:
        g = gate()
        if abs(g) < t.theta_down:
            continue
        value = payload()
        # A unit gate is the identity; skipping the multiply returns the
        # payload object itself, which the evaluator's pair table finds by id.
        if g != 1.0:
            value = g * value
        n = math.sqrt(value @ value)
        if n > t.theta_up:
            rest = value
            break
        if not n < t.theta_down:
            kept.append(value)
    else:
        rest = default()
    for value in reversed(kept):
        rest = normalize(value + rest)
    return rest
