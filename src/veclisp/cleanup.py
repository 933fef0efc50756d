"""Cleanup memories: trace stores that map noisy probes back to stored rows.

All five kinds share one recall shape: weight the stored rows by some function
of their activations against the probe, then sum.  ``lookup`` is the hardmax
special case, ``mhn`` the softmax one, ``minerva2`` an odd-power weighting,
``hopfield`` iterates the hardmax step to a fixed point, and ``grossberg``
adds the probe back in and squashes.
"""
from __future__ import annotations

import struct
from typing import Literal

import numpy as np

from .hrr import Vector

__all__ = [
    "KINDS",
    "RULES",
    "CleanupMemory",
    "EmptyMemoryError",
    "ConvergenceError",
]

KINDS = ("lookup", "mhn", "minerva2", "hopfield", "grossberg")
RULES = ("RC", "RG", "RE")

_MAGIC = b"VCM2"
_HEADER = struct.Struct("<4sBBQQ7dQ")

# The exact-row index may stand in for the dedup scan only where the scan is
# sure to agree.  A stored row equal to the trace scores 1 up to a rounding of
# a few ulps per dimension when its squared norm neither underflows nor
# overflows.
_NORM_MIN, _NORM_MAX = 1e-150, 1e150
_EPS = float(np.finfo(np.float64).eps)

# The float32 screen bounds a scan only for a float64 probe and stored rows
# whose norms lie in this range: no float32 sum can overflow (every partial sum
# is below 2**100), and float32 gradual underflow costs each product at most
# 2**-150, which is 4 * dim * eps64 of a norm product of at least 2**-100.
_SCREEN_MIN, _SCREEN_MAX = 2.0**-50, 2.0**50
_U32 = 2.0**-24

# Ranking rows through the screen (the argmax of a recall, the top k of a
# shortlist) costs a few fixed conversions and bound checks.  Timed at dim 2048
# with one BLAS thread, float64 against screened: 26 rows, recall 17 against
# 33 us and top-3 18 against 27 us; 128 rows, 82 against 52 us and 98 against
# 68 us; the two broke even at 64-80 rows.  The dedup screen already won at 26
# rows (29 us in float64 against 20 screened), so dedup has no floor.
_RANK_SCREEN_MIN_ROWS = 64


def _screen_margin(dim: int) -> float:
    """Bound on |float32 dot - float64 dot| per unit of ||r|| * ||p||.

    Rounding both operands to float32 and summing in any order errs by at most
    gamma_{dim+2} = (dim+2)u / (1 - (dim+2)u) with u = 2**-24.  The 8 * dim *
    eps64 on top covers float32 underflow (4 * dim * eps64, see above) and the
    float64 scan's own rounding of its dot product and norms.
    """
    k = (dim + 2) * _U32
    return k / (1.0 - k) + 8 * dim * _EPS


class EmptyMemoryError(RuntimeError):
    """Recall from an empty cleanup memory."""


class ConvergenceError(RuntimeError):
    """Hopfield iteration failed to reach a fixed point; carries the last iterate."""

    def __init__(self, message: str, last_iterate: Vector) -> None:
        super().__init__(message)
        self.last_iterate = last_iterate


def _softmax(z: Vector) -> Vector:
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _row_key(row: Vector) -> int:
    return hash(row.tobytes())


def _hardmax(z: Vector) -> int:
    # np.argmax already resolves ties toward the lowest index.
    return int(np.argmax(z))


class CleanupMemory:
    """Ordered store of n-dimensional traces with kind-dispatched recall.

    Rows are kept in insertion order.  ``append`` deduplicates: a trace whose
    cosine with some stored row is at least ``dedup_threshold`` is not stored
    again, so repeated stores do not grow the matrix.  A byte-identical repeat
    is found through an index of row hashes without scanning the store; any
    other trace is compared with every row.  A trace of zero norm (or a NaN
    norm) is never deduplicated, and a row whose score is NaN never matches.
    Snapshots keep the threshold along with the other parameters, which are
    carried inertly when the kind does not use them.

    Scans are screened through a float32 copy of the rows, which costs 4 bytes
    per stored coordinate on top of the 8 of the float64 rows.  A float32 dot
    product of a row r and a probe p differs from the float64 one by at most
    ``margin * ||r|| * ||p||``, where ``margin`` is gamma_{dim+2} in float32
    units plus a few dim * eps64 (about 1.22e-4 at dim 2048).  Dedup takes the
    screened cosine maximum s: s >= threshold + margin is a duplicate, s <
    threshold - margin is stored, and only the band between runs the float64
    scan.  ``recall_lookup`` returns the float32 argmax row when its activation
    minus its error bound exceeds every other row's activation plus that row's
    bound; otherwise the float64 activations decide, with their lowest-index
    tie-breaking.  ``shortlist`` returns the float32 top k when every row's
    lower bound is above the next one's upper bound and the k-th's is above
    every other row's; otherwise the float64 activations are sorted.  The
    screen applies only to a float64 probe whose norm, like every stored row's,
    lies in [2**-50, 2**50], and recall and shortlists use it only from 64
    rows; otherwise the float64 scan runs.  Either way the stored rows,
    recalled rows and shortlists are those of the float64 scan.
    """

    def __init__(
        self,
        dim: int,
        kind: str = "lookup",
        *,
        beta: float = 1000.0,
        rho: int | float = 3,
        gamma: float = 1000.0,
        alpha: float = 1.0,
        eta: float = 0.1,
        max_iters: int = 100,
        tol: float = 1e-6,
        dedup_threshold: float = 0.99,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown memory kind {kind!r}")
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.kind = kind
        self.beta = float(beta)
        self.rho = rho
        self.gamma = float(gamma)
        self.alpha = float(alpha)
        self.eta = float(eta)
        self.max_iters = int(max_iters)
        self.tol = float(tol)
        self.dedup_threshold = float(dedup_threshold)
        self._buf = np.empty((16, dim))
        self._buf32 = np.empty((16, dim), dtype=np.float32)
        # Norms of the float64 rows, whatever dtype a caller stored: the
        # screen's bound needs them accurate to float64 rounding.
        self._norms = np.empty(16)
        self._margin = _screen_margin(self.dim)
        self._m = 0
        # hash of a row's bytes -> indices of the rows with that hash
        self._index: dict[int, list[int]] = {}

    # -- storage ------------------------------------------------------------

    def __len__(self) -> int:
        return self._m

    @property
    def traces(self) -> Vector:
        return self._buf[: self._m]

    def _grow_to(self, needed: int) -> None:
        cap = self._buf.shape[0]
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        buf = np.empty((cap, self.dim))
        buf32 = np.empty((cap, self.dim), dtype=np.float32)
        norms = np.empty(cap)
        buf[: self._m] = self._buf[: self._m]
        buf32[: self._m] = self._buf32[: self._m]
        norms[: self._m] = self._norms[: self._m]
        self._buf = buf
        self._buf32 = buf32
        self._norms = norms

    def _mirror(self, start: int, stop: int) -> None:
        """Copy rows ``start:stop`` into the float32 screen."""
        with np.errstate(over="ignore"):  # rows past float32 range are never screened
            self._buf32[start:stop] = self._buf[start:stop]

    def _index_add(self, i: int) -> None:
        self._index.setdefault(_row_key(self._buf[i]), []).append(i)

    def _index_move(self, i: int, old: int) -> None:
        """Re-key row ``i`` after an overwrite; ``old`` is its key from before."""
        bucket = self._index[old]
        bucket.remove(i)
        if not bucket:
            del self._index[old]
        self._index_add(i)

    def _reindex(self) -> None:
        self._index = {}
        for i in range(self._m):
            self._index_add(i)

    def _stores_exactly(self, t: Vector, tn: float) -> bool:
        """Whether ``t`` is a stored row that the dedup scan is sure to find."""
        exact_rows_pass = self.dedup_threshold <= 1.0 - 4 * self.dim * _EPS
        if not (exact_rows_pass and t.dtype == np.float64 and _NORM_MIN < tn < _NORM_MAX):
            return False
        return any(np.array_equal(self._buf[i], t) for i in self._index.get(_row_key(t), ()))

    def _screens(self, p: Vector, pn: float) -> bool:
        """Whether the float32 screen's error bound holds for probe ``p`` of norm ``pn``."""
        norms = self._norms[: self._m]
        return (
            p.dtype == np.float64
            and _SCREEN_MIN <= pn <= _SCREEN_MAX
            and norms.min() >= _SCREEN_MIN
            and norms.max() <= _SCREEN_MAX
        )

    def _screened(self, p: Vector) -> Vector:
        """Float32 activations of every stored row against ``p``, as float64."""
        return (self._buf32[: self._m] @ p.astype(np.float32)).astype(np.float64)

    def _is_duplicate(self, t: Vector, tn: float) -> bool:
        """Whether some stored row's cosine with ``t`` reaches the threshold."""
        if self._screens(t, tn):
            best = (self._screened(t) / (self._norms[: self._m] * tn)).max()
            if best >= self.dedup_threshold + self._margin:
                return True
            if best < self.dedup_threshold - self._margin:
                return False
        return self._scan_duplicate(t, tn)

    def _scan_duplicate(self, t: Vector, tn: float) -> bool:
        """The float64 dedup scan: cosine of ``t`` with every stored row."""
        if not tn > 0.0:
            return False
        denom = self._norms[: self._m] * tn
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where(denom > 0.0, (self.traces @ t) / denom, 0.0)
        return bool((sims >= self.dedup_threshold).any())

    def append(self, t: Vector, *, dedup: bool = True) -> "CleanupMemory":
        """Append one trace; a near-duplicate of an existing row is a no-op."""
        if t.shape != (self.dim,):
            raise ValueError(f"trace shape {t.shape} does not match dim {self.dim}")
        if dedup and self._m > 0:
            tn = np.linalg.norm(t)
            if self._stores_exactly(t, tn) or self._is_duplicate(t, tn):
                return self
        self._grow_to(self._m + 1)
        self._buf[self._m] = t
        self._mirror(self._m, self._m + 1)
        self._norms[self._m] = np.linalg.norm(self._buf[self._m])
        self._index_add(self._m)
        self._m += 1
        return self

    def extend(self, rows: Vector, *, dedup: bool = False) -> "CleanupMemory":
        """Bulk-append rows; deduplication is off by default for speed."""
        rows = np.atleast_2d(rows)
        if dedup:
            for r in rows:
                self.append(r)
            return self
        k = rows.shape[0]
        self._grow_to(self._m + k)
        self._buf[self._m : self._m + k] = rows
        self._mirror(self._m, self._m + k)
        self._norms[self._m : self._m + k] = np.linalg.norm(self._buf[self._m : self._m + k], axis=1)
        for i in range(self._m, self._m + k):
            self._index_add(i)
        self._m += k
        return self

    def set_row(self, i: int, t: Vector) -> None:
        """Overwrite a stored row in place (used for redefinition semantics)."""
        if not 0 <= i < self._m:
            raise IndexError("row index out of range")
        old = _row_key(self._buf[i])
        self._buf[i] = t
        self._mirror(i, i + 1)
        self._norms[i] = np.linalg.norm(self._buf[i])
        self._index_move(i, old)

    def activations(self, p: Vector) -> Vector:
        self._require_nonempty()
        return self.traces @ p

    def shortlist(self, p: Vector, k: int) -> np.ndarray:
        """Indices of the ``k`` rows of highest activation, highest first.

        Always equal to ``np.argsort(self.activations(p))[::-1][:k]``.
        """
        self._require_nonempty()
        order = self._screened_top(p, k)
        if order is None:
            order = np.argsort(self.activations(p))[::-1][:k]
        return order

    def _screened_top(self, p: Vector, k: int) -> np.ndarray | None:
        """The float32 top ``k``, highest first, if the screen proves the order, else None.

        The proof needs each row's lower bound above the next row's upper
        bound, and the k-th's above every other row's upper bound: then the
        float64 order is strict there, and every sort returns these rows.
        """
        bounded = self._ranked(p) if 0 < k < self._m else None
        if bounded is None:
            return None
        acts, err = bounded
        top = np.argpartition(acts, -k)[-k:]
        top = top[np.argsort(acts[top])[::-1]]
        lower = acts[top] - err[top]
        upper = acts + err
        ordered = (lower[:-1] > upper[top[1:]]).all()
        upper[top] = -np.inf
        return top if ordered and lower[-1] > upper.max() else None

    def _require_nonempty(self) -> None:
        if self._m == 0:
            raise EmptyMemoryError("recall from empty cleanup memory")

    # -- recall -------------------------------------------------------------

    def recall(self, p: Vector) -> Vector:
        """Dispatch recall by the configured kind."""
        if self.kind == "lookup":
            return self.recall_lookup(p)
        if self.kind == "mhn":
            return self.recall_mhn(p)
        if self.kind == "minerva2":
            return self.recall_minerva2(p)
        if self.kind == "hopfield":
            return self.recall_hopfield(p)
        return self.recall_grossberg(p)

    def recall_lookup(self, p: Vector) -> Vector:
        """Exact row with the highest activation; ties go to the lowest index."""
        self._require_nonempty()
        i = self._screened_argmax(p)
        if i is None:
            i = _hardmax(self.activations(p))
        return self.traces[i].copy()

    def _ranked(self, p: Vector) -> tuple[Vector, Vector] | None:
        """Screened activations against ``p`` and their error bounds, if the screen may rank rows."""
        if self._m < _RANK_SCREEN_MIN_ROWS:
            return None
        pn = np.linalg.norm(p)
        if not self._screens(p, pn):
            return None
        return self._screened(p), self._margin * pn * self._norms[: self._m]

    def _screened_argmax(self, p: Vector) -> int | None:
        """The row of highest activation if the float32 screen proves it, else None."""
        bounded = self._ranked(p)
        if bounded is None:
            return None
        acts, err = bounded
        i = int(np.argmax(acts))
        rivals = acts + err
        rivals[i] = -np.inf
        return i if rivals.max() < acts[i] - err[i] else None

    def recall_mhn(self, p: Vector, beta: float | None = None) -> Vector:
        """Softmax-weighted row blend; beta=0 is the unweighted row mean."""
        acts = self.activations(p)
        b = self.beta if beta is None else float(beta)
        if b < 0.0:
            raise ValueError("beta must be nonnegative")
        if b == 0.0:
            return self.traces.mean(axis=0)
        return _softmax(b * acts) @ self.traces

    def recall_minerva2(self, p: Vector, rho: int | float | None = None) -> Vector:
        """Activation-power weighting.

        An integer ``rho`` must be odd and is applied as a plain power; a real
        ``rho`` uses the sign-preserving form sgn(x)|x|^rho, which agrees with
        the integer path at odd integers.
        """
        acts = self.activations(p)
        r = self.rho if rho is None else rho
        if isinstance(r, (int, np.integer)) and not isinstance(r, bool):
            if r % 2 == 0:
                raise ValueError("integer rho must be odd")
            w = acts ** int(r)
        else:
            w = np.sign(acts) * np.abs(acts) ** float(r)
        return w @ self.traces

    def recall_hopfield(self, p: Vector) -> Vector:
        """Iterate the hardmax recall step until the iterate stops moving."""
        x = p
        for _ in range(self.max_iters):
            nxt = self.recall_lookup(x)
            if np.linalg.norm(nxt - x) < self.tol:
                return nxt
            x = nxt
        raise ConvergenceError(
            f"no fixed point within {self.max_iters} iterations", last_iterate=x
        )

    def recall_grossberg(self, p: Vector) -> Vector:
        """Hardmax-selected row plus the probe, squashed through a logistic."""
        selected = self.recall_lookup(p)
        v = selected + p
        l1 = np.abs(v).sum()
        if l1 == 0.0:
            raise EmptyMemoryError("degenerate grossberg recall of a zero state")
        z = v / l1
        return 1.0 / (1.0 + np.exp(-z))

    # -- updates ------------------------------------------------------------

    def apply_update(self, p: Vector, grad: Vector, rule: Literal["RC", "RG", "RE"]) -> "CleanupMemory":
        """One gradient step on the stored rows.

        ``grad`` must have one row per trace; the caller owns its meaning.
        RC applies it everywhere, RG gates it to the hardmax row, RE scales
        row i by alpha * softmax(gamma * activations)[i].
        """
        self._require_nonempty()
        grad = np.asarray(grad)
        if grad.shape != (self._m, self.dim):
            raise ValueError(f"grad shape {grad.shape} does not match store ({self._m}, {self.dim})")
        if rule == "RC":
            self._buf[: self._m] -= self.eta * grad
        elif rule == "RG":
            i = _hardmax(self.activations(p))
            old = _row_key(self._buf[i])
            self._buf[i] -= self.eta * grad[i]
            self._mirror(i, i + 1)
            self._norms[i] = np.linalg.norm(self._buf[i])
            self._index_move(i, old)
            return self
        elif rule == "RE":
            w = self.alpha * _softmax(self.gamma * self.activations(p))
            self._buf[: self._m] -= self.eta * w[:, None] * grad
        else:
            raise ValueError(f"unknown update rule {rule!r}")
        self._mirror(0, self._m)
        self._norms[: self._m] = np.linalg.norm(self.traces, axis=1)
        self._reindex()
        return self

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Flat binary snapshot: fixed header, then row-major float64 traces."""
        rho_is_int = isinstance(self.rho, (int, np.integer)) and not isinstance(self.rho, bool)
        header = _HEADER.pack(
            _MAGIC,
            KINDS.index(self.kind),
            1 if rho_is_int else 0,
            self._m,
            self.dim,
            self.beta,
            float(self.rho),
            self.gamma,
            self.alpha,
            self.eta,
            self.tol,
            self.dedup_threshold,
            self.max_iters,
        )
        body = np.ascontiguousarray(self.traces, dtype="<f8").tobytes()
        return header + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CleanupMemory":
        if len(blob) < _HEADER.size:
            raise ValueError("truncated cleanup memory snapshot")
        (magic, kind_i, rho_is_int, m, dim, beta, rho, gamma, alpha, eta, tol, dedup_threshold,
         max_iters) = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise ValueError("bad cleanup memory magic")
        if kind_i >= len(KINDS):
            raise ValueError(f"unknown memory kind index {kind_i}")
        expected = _HEADER.size + m * dim * 8
        if len(blob) != expected:
            raise ValueError(f"snapshot length {len(blob)} does not match header ({expected})")
        mem = cls(
            int(dim),
            KINDS[kind_i],
            beta=beta,
            rho=int(rho) if rho_is_int else rho,
            gamma=gamma,
            alpha=alpha,
            eta=eta,
            max_iters=int(max_iters),
            tol=tol,
            dedup_threshold=dedup_threshold,
        )
        rows = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(int(m), int(dim))
        if m:
            mem.extend(rows.astype(np.float64))
        return mem

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "CleanupMemory":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
