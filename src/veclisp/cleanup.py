"""Cleanup memories: trace stores that map noisy probes back to stored rows.

All five kinds share one recall shape: weight the stored rows by some function
of their activations against the probe, then sum.  ``lookup`` is the hardmax
special case, ``mhn`` the softmax one, ``minerva2`` an odd-power weighting,
``hopfield`` iterates the hardmax step to a fixed point, and ``grossberg``
adds the probe back in and squashes.  A store finds a row by its exact bytes
without a scan, stores an appended trace only when no row has those bytes,
and screens shortlists through a float32 copy of its rows.
"""
from __future__ import annotations

import math

import numpy as np

from .hrr import DegenerateVector, Vector, _dots, bytes_key

__all__ = [
    "KINDS",
    "CleanupMemory",
    "EmptyMemoryError",
    "ConvergenceError",
]

KINDS = ("lookup", "mhn", "minerva2", "hopfield", "grossberg")

# Hopfield recall stops once an iterate moves by less than HOPFIELD_TOL, and
# raises ConvergenceError after HOPFIELD_MAX_ITERS steps without that.
HOPFIELD_MAX_ITERS = 100
HOPFIELD_TOL = 1e-6

_EPS = float(np.finfo(np.float64).eps)

# The float32 screen bounds a scan only for a float64 probe and stored rows
# whose norms lie in this range: no float32 sum can overflow (every partial sum
# is below 2**100), and float32 gradual underflow costs each product at most
# 2**-150, which is 4 * dim * eps64 of a norm product of at least 2**-100.
_SCREEN_MIN, _SCREEN_MAX = 2.0**-50, 2.0**50
_U32 = 2.0**-24


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


def _proven_top(acts: Vector, err: Vector, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's top ``k`` screened rows, highest first, and whether the bounds prove them.

    ``acts`` holds one row of screened activations per probe, ``err`` bounds
    each one's distance from the float64 activation, and 0 < k < m.  The
    proof needs each top row's lower bound above the next top row's upper
    bound, and the k-th's above every other row's upper bound: then the
    float64 order is strict there, and every sort returns these rows.
    """
    top = np.argpartition(acts, -k, axis=1)[:, -k:]
    top = np.take_along_axis(top, np.argsort(np.take_along_axis(acts, top, 1), axis=1)[:, ::-1], 1)
    upper = acts + err
    lower = np.take_along_axis(acts - err, top, 1)
    ordered = (lower[:, :-1] > np.take_along_axis(upper, top[:, 1:], 1)).all(axis=1)
    np.put_along_axis(upper, top, -np.inf, 1)
    return top, ordered & (lower[:, -1] > upper.max(axis=1))


class CleanupMemory:
    """Ordered store of n-dimensional traces with kind-dispatched recall.

    Rows are kept in insertion order.  ``find`` looks a row up by its exact
    bytes through an index of row hashes, without a scan, and ``append``
    stores a trace only when ``find`` finds no row with its bytes, so
    repeated stores do not grow the matrix; ``extend`` stores rows exactly as
    given.  ``extend`` is the only code that writes rows, so a row never
    changes once stored.  Whatever the kind, ``beta`` must be finite and
    nonnegative and ``rho`` finite, positive and, if an integer, odd; the
    constructor checks both.

    ``shortlist`` is screened through a float32 copy of the rows, which costs
    4 bytes per stored coordinate on top of the 8 of the float64 rows.  A
    float32 dot product of a row r and a probe p differs from the float64 one
    by at most ``margin * ||r|| * ||p||``, where ``margin`` is gamma_{dim+2}
    in float32 units plus a few dim * eps64 (about 1.22e-4 at dim 2048).  It
    returns the float32 top k when every row's lower bound is above the next
    one's upper bound and the k-th's is above every other row's; otherwise
    the float64 activations are sorted.  A block of probes is screened in one
    float32 matrix product, and each probe keeps its own proof and its own
    float64 fallback.  The screen applies only to a float64 probe whose norm,
    like every stored row's, lies in [2**-50, 2**50]; otherwise the float64
    scan runs.  Either way the shortlists are those of the float64 scan.
    Recall ranks by the float64 activations, with their lowest-index
    tie-breaking.
    """

    def __init__(
        self,
        dim: int,
        kind: str = "lookup",
        *,
        beta: float = 1000.0,
        rho: int | float = 3,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown memory kind {kind!r}")
        if dim <= 0:
            raise ValueError("dim must be positive")
        if not beta >= 0.0:  # NaN fails too
            raise ValueError("beta must be nonnegative")
        if not math.isfinite(beta):  # an infinite beta makes the softmax NaN
            raise ValueError("beta must be finite")
        if isinstance(rho, (int, np.integer)) and not isinstance(rho, bool) and rho % 2 == 0:
            raise ValueError("integer rho must be odd")
        if not 0 < rho < math.inf:  # NaN fails too; at rho <= 0 weights stop growing with activation
            raise ValueError("rho must be finite and positive")
        self.dim = int(dim)
        self.kind = kind
        self.beta = float(beta)
        self.rho = rho
        self._buf = np.empty((16, dim))
        self._buf32 = np.empty((16, dim), dtype=np.float32)
        # Norms of the float64 rows, whatever dtype a caller stored: the
        # screen's bounds need them accurate to float64 rounding.
        self._norms = np.empty(16)
        self._margin = _screen_margin(self.dim)
        self._m = 0
        # hrr.bytes_key of a row -> indices of the rows with that key
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
        for name in ("_buf", "_buf32", "_norms"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[: self._m] = old[: self._m]
            setattr(self, name, new)

    def _mirror(self, start: int, stop: int) -> None:
        """Copy rows ``start:stop`` into the float32 screen, record their norms and index their bytes."""
        rows = self._buf[start:stop]
        with np.errstate(over="ignore"):  # rows past float32 range are never screened
            self._buf32[start:stop] = rows
        self._norms[start:stop] = np.linalg.norm(rows, axis=1)
        for i in range(start, stop):
            self._index.setdefault(bytes_key(self._buf[i]), []).append(i)

    def find(self, t: Vector) -> int | None:
        """The lowest-index row bitwise equal to the float64 vector ``t``, or None."""
        for i in self._index.get(bytes_key(t), ()):
            if np.array_equal(self._buf[i], t):
                return i
        return None

    def _screens(self, p: Vector, pn: float | Vector) -> bool | np.ndarray:
        """Whether the float32 screen's error bound holds for probe ``p`` of norm ``pn``.

        For a block of probes ``pn`` holds their norms, and the answer is one
        bool per probe.
        """
        norms = self._norms[: self._m]
        rows_screen = p.dtype == np.float64 and norms.min() >= _SCREEN_MIN and norms.max() <= _SCREEN_MAX
        return rows_screen & (_SCREEN_MIN <= pn) & (pn <= _SCREEN_MAX)

    def _screened(self, probes: Vector) -> Vector:
        """Float32 activations of every stored row against each probe of a block, as float64."""
        return (self._buf32[: self._m] @ probes.astype(np.float32).T).T.astype(np.float64)

    def append(self, t: Vector) -> "CleanupMemory":
        """Append one trace, unless some row already has its exact bytes."""
        if t.shape != (self.dim,):
            raise ValueError(f"trace shape {t.shape} does not match dim {self.dim}")
        if self.find(t) is None:
            self.extend(t)
        return self

    def extend(self, rows: Vector) -> "CleanupMemory":
        """Bulk-append rows exactly as given, copies of stored rows included."""
        rows = np.atleast_2d(rows)
        k = rows.shape[0]
        self._grow_to(self._m + k)
        self._buf[self._m : self._m + k] = rows
        self._mirror(self._m, self._m + k)
        self._m += k
        return self

    def activations(self, p: Vector) -> Vector:
        self._require_nonempty()
        return self.traces @ p

    def shortlist(self, p: Vector, k: int) -> np.ndarray:
        """Indices of the ``k`` rows of highest activation, highest first.

        Always equal to ``np.argsort(self.activations(p))[::-1][:k]``.  A
        block of probes, of shape (n, dim), is ranked in one screened pass and
        gives one row of indices per probe, each equal to that probe's
        shortlist; a probe whose order the screen cannot prove is sorted from
        its float64 activations alone.
        """
        self._require_nonempty()
        probes = np.atleast_2d(p)
        # As many indices per probe as the float64 slice [:k] keeps.
        top = np.empty((len(probes), len(range(self._m)[:k])), dtype=np.intp)
        proven = np.zeros(len(probes), dtype=bool)
        if 0 < k < self._m:
            pn = np.sqrt(_dots(probes, probes))  # bitwise np.linalg.norm of each probe
            screens = self._screens(probes, pn)
            if screens.any():
                # Zero the probes the screen cannot bound; their screened rows are never read.
                screened = probes if screens.all() else np.where(screens[:, None], probes, 0.0)
                err = self._margin * pn[:, None] * self._norms[: self._m]
                top, proven = _proven_top(self._screened(screened), err, k)
                proven &= screens
        for i in np.flatnonzero(~proven):
            top[i] = np.argsort(self.activations(probes[i]))[::-1][:k]
        return top if p.ndim == 2 else top[0]

    def _require_nonempty(self) -> None:
        if self._m == 0:
            raise EmptyMemoryError("recall from empty cleanup memory")

    # -- recall -------------------------------------------------------------

    def recall(self, p: Vector) -> Vector:
        """Dispatch recall by the configured kind: ``recall_<kind>``."""
        return getattr(self, f"recall_{self.kind}")(p)

    def recall_lookup(self, p: Vector) -> Vector:
        """Exact row with the highest activation; ties go to the lowest index."""
        return self.traces[self.nearest(p)].copy()

    def nearest(self, p: Vector) -> int:
        """Index of the row with the highest activation; ties go to the lowest index."""
        return int(np.argmax(self.activations(p)))

    def recall_mhn(self, p: Vector) -> Vector:
        """Softmax-weighted row blend; beta=0 is the unweighted row mean."""
        acts = self.activations(p)
        if self.beta == 0.0:
            return self.traces.mean(axis=0)
        return _softmax(self.beta * acts) @ self.traces

    def recall_minerva2(self, p: Vector) -> Vector:
        """Activation-power weighting.

        An integer ``rho``, odd by construction, is applied as a plain power;
        a real ``rho`` uses the sign-preserving form sgn(x)|x|^rho, which
        agrees with the integer path at odd integers.  A recall whose squared
        norm underflows to zero, as at a large ``rho``, raises ``DegenerateVector``.
        """
        acts = self.activations(p)
        r = self.rho
        if isinstance(r, (int, np.integer)) and not isinstance(r, bool):
            w = acts ** int(r)
        else:
            w = np.sign(acts) * np.abs(acts) ** float(r)
        out = w @ self.traces
        if out @ out == 0.0:
            raise DegenerateVector(f"minerva2 recall underflowed to zero at rho={r}")
        return out

    def recall_hopfield(self, p: Vector) -> Vector:
        """Iterate the hardmax recall step until the iterate stops moving."""
        x = p
        for _ in range(HOPFIELD_MAX_ITERS):
            nxt = self.recall_lookup(x)
            if np.linalg.norm(nxt - x) < HOPFIELD_TOL:
                return nxt
            x = nxt
        raise ConvergenceError(
            f"no fixed point within {HOPFIELD_MAX_ITERS} iterations", last_iterate=x
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
