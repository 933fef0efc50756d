"""Holographic vector algebra: atoms, binding, superposition, cleanup-ready probes.

Expressions in this package are real vectors of a fixed dimension n.  Atoms are
drawn i.i.d. normal with variance 1/n so their expected norm is 1.  Structure is
built with circular convolution (binding) and elementwise addition
(superposition), and taken apart with an approximate inverse based on index
reversal.  All operations are deterministic given a registry seed.
"""
from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

__all__ = [
    "Vector",
    "Thresholds",
    "AtomRegistry",
    "Permutation",
    "DimensionMismatch",
    "DegenerateVector",
    "bind",
    "involution",
    "unbind",
    "similarity",
    "normalize",
    "permute",
    "saturating_add",
]


class DimensionMismatch(ValueError):
    """Raised when an operation combines vectors of different dimensions."""


class DegenerateVector(ValueError):
    """Raised on normalization of a zero vector."""


@dataclass(frozen=True)
class Thresholds:
    """Saturation band for the lazy add: full above theta_up, empty below theta_down."""

    theta_up: float = 0.8
    theta_down: float = 0.2

    def __post_init__(self) -> None:
        if not (0.0 < self.theta_up <= 1.0):
            raise ValueError("theta_up must lie in (0, 1]")
        if not (0.0 <= self.theta_down < 1.0):
            raise ValueError("theta_down must lie in [0, 1)")
        if self.theta_down >= self.theta_up:
            raise ValueError("theta_down must be strictly below theta_up")


def _seed_material(seed: int, dim: int, name: str) -> int:
    digest = hashlib.blake2b(f"{seed}|{dim}|{name}".encode(), digest_size=16).digest()
    return int.from_bytes(digest, "little")


class AtomRegistry:
    """Deterministic name-to-vector table.

    Each vector is derived from (seed, dim, name) alone, so the mapping does not
    depend on insertion order and two registries with the same seed agree on
    every name they share.  Lookups cache the drawn vector.
    """

    def __init__(self, dim: int = 2048, seed: int = 0) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.seed = int(seed)
        self._entries: dict[str, Vector] = {}
        self._lock = threading.Lock()
        self._matrix: Vector | None = None

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
                self._matrix = None
        return got

    def names(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def _snapshot(self) -> tuple[list[str], Vector]:
        with self._lock:
            if self._matrix is None:
                self._matrix = np.stack([self._entries[k] for k in self._entries])
            return list(self._entries), self._matrix

    def nearest(self, v: Vector) -> tuple[str, float]:
        """Name and cosine similarity of the registry atom most similar to ``v``."""
        if not self._entries:
            raise KeyError("empty atom registry")
        names, matrix = self._snapshot()
        norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(v)
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


def _check_pair(u: Vector, v: Vector) -> None:
    if u.shape != v.shape:
        raise DimensionMismatch(f"operand shapes differ: {u.shape} vs {v.shape}")


def bind(u: Vector, v: Vector) -> Vector:
    """Circular convolution of ``u`` and ``v``.

    Computed through the real FFT, which matches the naive O(n^2) sum to within
    accumulated rounding (well under 1e-9 for the dimensions used here) and is
    exactly commutative.
    """
    _check_pair(u, v)
    n = u.shape[0]
    fu = np.fft.rfft(u)
    fv = np.fft.rfft(v)
    # The complex multiply ufunc may fuse with FMA, which breaks bitwise
    # symmetry under operand swap; the split form commutes exactly because
    # IEEE multiplication and addition each do.
    spec = np.empty(fu.shape, dtype=complex)
    spec.real = fu.real * fv.real - fu.imag * fv.imag
    spec.imag = fu.real * fv.imag + fu.imag * fv.real
    return np.fft.irfft(spec, n=n)


def involution(u: Vector) -> Vector:
    """Index-reversal involution: component i maps to component (-i) mod n."""
    return np.roll(u[::-1], 1)


def unbind(u: Vector, w: Vector) -> Vector:
    """Approximate inverse of binding: recover v from bind(u, v) up to noise."""
    _check_pair(u, w)
    return bind(involution(u), w)


def similarity(u: Vector, v: Vector) -> float:
    """Cosine similarity in [-1, 1]; zero whenever either operand has zero norm."""
    _check_pair(u, v)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # Equal vectors must score exactly 1.0; the quotient below can round to
    # one ulp under it, which downstream gate logic treats as meaningful.
    if u is v or np.array_equal(u, v):
        return 1.0
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def normalize(v: Vector) -> Vector:
    """Scale ``v`` to unit norm."""
    n = np.linalg.norm(v)
    if n == 0.0:
        raise DegenerateVector("degenerate normalization of a zero vector")
    return v / n


def permute(v: Vector, perm: Permutation, *, inverse: bool = False) -> Vector:
    """Apply the session permutation (or its exact inverse) to ``v``."""
    return perm.inverse(v) if inverse else perm.forward(v)


def saturating_add(a: Callable[[], Vector], b: Callable[[], Vector], t: Thresholds) -> Vector:
    """Saturating lazy superposition.

    Both operands are deferred computations.  ``a`` is evaluated first; if its
    norm exceeds ``t.theta_up`` it is returned and ``b`` is never evaluated.  If
    its norm falls below ``t.theta_down`` the result is ``b`` alone.  Otherwise
    both are evaluated and their normalized sum is returned.  Errors propagate
    only from operands that were actually evaluated.
    """
    av = a()
    na = float(np.linalg.norm(av))
    if na > t.theta_up:
        return av
    if na < t.theta_down:
        return b()
    return normalize(av + b())
