"""Codec between symbolic trees and their vector encodings.

A pair is the normalized superposition of its halves bound to the role tags L
and R, plus the structure marker PHI.  Every vector is in ``hrr.to_coords``
coordinates, atoms are ``AtomRegistry.coords``, and a ``TagSet`` binds and
unbinds by elementwise products, so no pair costs an FFT.  Encoding a tree
appends the halves of its pairs to a cleanup memory, whose ``append`` stores
each distinct half once by its exact bytes, so the halves can be recovered
later by unbind-and-recall.  A cosine screen would merge swap twins such as
((a . b) . (c . d)) and ((a . c) . (b . d)): binding commutes, so their keys
meet at a cosine of about 0.9999.  An evaluation session keeps its pairs in a
``PairTable`` instead, which holds each pair's key with its two halves.
Reserved tag names start with '#', which the reader cannot produce, so they
never collide with user atoms; NIL, T and F are deliberately the ordinary
atoms of those names.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hrr
from .cleanup import CleanupMemory
from .hrr import AtomRegistry, DimensionMismatch, Thresholds, Vector
from .reader import Atom, Pair, SExpr

__all__ = [
    "TagSet",
    "PairTable",
    "DecodeError",
    "DONE_NAME",
    "GENSYM_PREFIX",
    "cons_vec",
    "is_atomic_vec",
    "encode",
    "decode",
]

L_NAME = "#L"
R_NAME = "#R"
PHI_NAME = "#PHI"
DONE_NAME = "#DONE"
GENSYM_PREFIX = "#G"

DECODE_DEPTH_LIMIT = 64

# Tag set field -> the registry name of its reserved vector.
_RESERVED = {
    "left": L_NAME,
    "right": R_NAME,
    "phi": PHI_NAME,
    "nil": "NIL",
    "true": "T",
    "false": "F",
    "done": DONE_NAME,
}


class DecodeError(RuntimeError):
    """Decoding found no stored answer for a pair node, or its walk diverged or passed the depth limit."""


@dataclass(frozen=True)
class TagSet:
    """The reserved vectors of sessions and the codec in ``hrr.to_coords`` coordinates: roles, markers, constants.

    A role is bound with ``hrr.bind_coords``, an elementwise product, so it
    needs no FFT and no cache; ``unbind`` binds by the role's involution,
    whose coordinates are the role's conjugate, and takes one vector or a
    stack of shape (..., dim).
    """

    left: Vector
    right: Vector
    phi: Vector
    nil: Vector
    true: Vector
    false: Vector
    done: Vector

    @classmethod
    def of(cls, registry: AtomRegistry) -> "TagSet":
        """The tag set of ``registry``'s reserved atoms: the one built last, when its vectors are those objects.

        Registries of one (seed, dim) share their atoms' objects, so their
        sessions and codec calls share one tag set, with its ``_inverses`` and
        ``_views``, until another (seed, dim) asks.
        """
        global _last_tags
        vectors = {attr: registry.coords(name) for attr, name in _RESERVED.items()}
        tags = _last_tags
        if tags is None or any(getattr(tags, attr) is not v for attr, v in vectors.items()):
            tags = _last_tags = cls(**vectors)
        return tags

    @cached_property
    def _inverses(self) -> dict[int, Vector]:
        """id of a role tag -> the coordinates of its involution: the tag with its middle bins conjugated."""
        signs = np.ones(len(self.left))
        hrr._middle(signs).imag = -1.0
        return {id(tag): tag * signs for tag in (self.left, self.right)}

    def unbind(self, role: Vector, w: Vector) -> Vector:
        """The coordinates of ``hrr.unbind(role, w)`` for ``role`` the tag set's ``left`` or ``right``."""
        return hrr.bind_coords(self._inverses[id(role)], w)

    @cached_property
    def _views(self) -> tuple[int, np.ndarray, np.ndarray]:
        """How many real entries lead a vector, and the middle bins of L and R as complex views."""
        return hrr._reals(len(self.left)), hrr._middle(self.left), hrr._middle(self.right)

    def pair_sum(self, a: Vector, b: Vector) -> Vector:
        """``bind(left, a) + bind(right, b) + phi``, bitwise, in one buffer by ``hrr.bind_coords``' steps."""
        n = len(self.left)
        if a.shape != (n,) or b.shape != (n,):
            raise DimensionMismatch(f"cannot bind shapes {a.shape} and {b.shape} to shape {self.left.shape}")
        s, left, right = self._views
        out = np.empty(n)
        middle = hrr._middle(out)
        np.multiply(left, hrr._middle(a), out=middle)
        middle *= math.sqrt(n / 2)
        scratch = right * hrr._middle(b)
        scratch *= math.sqrt(n / 2)
        middle += scratch
        for i in range(s):  # DC, then Nyquist
            out[i] = self.left[i] * a[i] * math.sqrt(n) + self.right[i] * b[i] * math.sqrt(n)
        out += self.phi
        return out


_last_tags: TagSet | None = None  # the tag set ``TagSet.of`` built last


def cons_vec(a: Vector, b: Vector, tags: TagSet) -> Vector:
    """Pair constructor: normalize(L*a + R*b + PHI), in the tag set's coordinates."""
    return hrr.normalize(tags.pair_sum(a, b))


def is_atomic_vec(v: Vector, tags: TagSet, t: Thresholds) -> bool | np.ndarray:
    """A vector is atomic when it carries no visible PHI component.

    For a stack of vectors the answer is one bool per vector.
    """
    return hrr.similarity(v, tags.phi) < t.theta_down


class PairTable:
    """A session's hash-consed pairs: each key with the two halves it was built from.

    Row i holds the key ``keys[i]`` and its halves ``halves[i]``.  Keys and
    halves are held for as long as their row is kept and made read-only when
    stored, so an id found in the table's id maps names the same bytes for
    as long as its row lives: one from the id of a key to its row, one from
    the ids of a left and a right half to the row first built from exactly
    those objects.  A third map, from a key's ``hrr.bytes_key`` to its rows,
    finds bitwise copies without a scan.  ``keep`` lets every other row go.
    The keys are stacked into a float64 matrix only when a probe is first
    ranked against them.
    """

    def __init__(self, dim: int) -> None:
        self.dim = int(dim)
        self.keys: list[Vector] = []
        self.halves: list[tuple[Vector, Vector]] = []
        self._rows: dict[int, int] = {}
        self._built: dict[tuple[int, int], int] = {}
        self._by_bytes: dict[int, list[int]] = {}
        self._matrix: Vector | None = None  # rows [0, _filled) hold keys[0:_filled]
        self._filled = 0

    def __len__(self) -> int:
        return len(self.keys)

    def cons(self, a: Vector, b: Vector, tags: TagSet) -> Vector:
        """The key of the pair of ``a`` and ``b``, built only for halves not seen together before.

        Halves that are the very objects some row was built from return that
        row's key without a bind; otherwise the pair vector is built and
        interned by its exact bytes.
        """
        ids = (id(a), id(b))
        row = self._built.get(ids)
        if row is None:
            new = len(self.keys)
            row = self.intern(cons_vec(a, b, tags), a, b)
            if row == new:
                self._built[ids] = row
        return self.keys[row]

    def intern(self, key: Vector, left: Vector, right: Vector) -> int:
        """The row of the key bitwise equal to ``key``, storing it with these halves if new."""
        digest = hrr.bytes_key(key)
        row = self._find(key, digest)
        if row is None:
            row = len(self.keys)
            for v in (key, left, right):
                v.flags.writeable = False  # the table holds them; an in-place write must fail
            self.keys.append(key)
            self.halves.append((left, right))
            self._rows[id(key)] = row
            self._by_bytes.setdefault(digest, []).append(row)
        return row

    def held(self, v: Vector) -> int | None:
        """The row whose key is the very object ``v``, or None."""
        return self._rows.get(id(v))

    def row(self, v: Vector, floor: float) -> int | None:
        """The row that answers a probe: by identity, exact bytes, then nearest key.

        None when the table is empty or no key reaches a cosine of ``floor``
        with ``v``.
        """
        row = self._rows.get(id(v))
        if row is not None or not self.keys:
            return row
        row = self.find(v)
        if row is None:
            row = self.nearest(v)
            if not hrr.similarity(v, self.keys[row]) >= floor:
                return None
        return row

    def find(self, t: Vector) -> int | None:
        """The lowest row whose key is bitwise equal to ``t``, or None."""
        return self._find(t, hrr.bytes_key(t))

    def _find(self, t: Vector, digest: int) -> int | None:
        for i in self._by_bytes.get(digest, ()):
            if np.array_equal(self.keys[i], t):
                return i
        return None

    def nearest(self, p: Vector) -> int:
        """The row whose key has the highest dot product with ``p``; ties go to the lowest row."""
        return int(np.argmax(self.traces @ p))

    def keep(self, live: set[int]) -> dict[int, int]:
        """Keep only the rows ``live``, in their order, and return each kept row's new index.

        The order is kept so that ``nearest`` breaks ties as before.  The
        other rows' keys and halves are let go with every id-map entry that
        names them, since their ids can pass to new objects; a pair rebuilt
        later from bitwise-equal halves gets bitwise the old key.
        """
        new = {old: i for i, old in enumerate(sorted(live))}
        self.keys = [self.keys[old] for old in new]
        self.halves = [self.halves[old] for old in new]
        self._rows = {id(key): i for i, key in enumerate(self.keys)}
        self._built = {ids: new[row] for ids, row in self._built.items() if row in new}
        by_bytes = ((digest, [new[r] for r in rows if r in new]) for digest, rows in self._by_bytes.items())
        self._by_bytes = {digest: rows for digest, rows in by_bytes if rows}
        self._matrix, self._filled = None, 0
        return new

    @property
    def traces(self) -> Vector:
        """The keys as the rows of one float64 matrix; keys added since the last call are copied in now."""
        m = len(self.keys)
        if self._matrix is None or len(self._matrix) < m:
            old, self._matrix = self._matrix, np.empty((max(16, 2 * m), self.dim))
            if self._filled:
                self._matrix[: self._filled] = old[: self._filled]
        if self._filled < m:
            self._matrix[self._filled : m] = self.keys[self._filled : m]
            self._filled = m
        return self._matrix[:m]


def encode(e: SExpr, registry: AtomRegistry, mem: CleanupMemory) -> Vector:
    """Encode a tree bottom-up in coordinates; each distinct half of a sub-pair is stored once."""
    return _encode(e, registry, mem, TagSet.of(registry))


def _encode(e: SExpr, registry: AtomRegistry, mem: CleanupMemory, tags: TagSet) -> Vector:
    if isinstance(e, Atom):
        return registry.coords(e.name)
    left = _encode(e.left, registry, mem, tags)
    right = _encode(e.right, registry, mem, tags)
    mem.append(left)
    mem.append(right)
    return cons_vec(left, right, tags)


DECODE_SHORTLIST = 3
# Pair nodes scored per product: at dim 2048 a chunk's (32, 3, 3, dim) float64
# arrays of rebuilt splits take 4.7 MB each, however wide the level is.
DECODE_SCORE_CHUNK = 32


def decode(
    v: Vector,
    mem: CleanupMemory,
    registry: AtomRegistry,
    t: Thresholds,
    max_depth: int = DECODE_DEPTH_LIMIT,
) -> SExpr:
    """Decode the coordinates ``v`` back to a tree via nearest atoms and memory recall.

    An atomic vector decodes to its ``registry.name``; a pair node to the
    split that ``_best_splits`` picks, whose halves are stored rows.  The walk
    is a loop over tree levels, so Python's recursion limit does not bound the
    depth of a tree, and each level holds only distinct vectors: the root,
    then the distinct stored rows that the level above split into.  Each
    level makes one atomicity test and one shortlist pass over the store,
    whatever its width, and binds and scores its pair nodes
    ``DECODE_SCORE_CHUNK`` at a time.  A row reached along several paths is
    decoded once per level, so a divergent decode costs at most ``max_depth``
    levels, each no wider than the store; it raises ``DecodeError`` when some
    path is longer than ``max_depth``.
    """
    tags = TagSet.of(registry)
    nodes = v[None]
    # Per level above the last: each node's atom or None, the level's pair
    # nodes and, for each, the next level's positions of its two halves.
    levels = []
    for _ in range(max_depth):
        atomic = is_atomic_vec(nodes, tags, t)
        trees: list[SExpr | None] = [
            Atom(registry.name(x)) if a else None for x, a in zip(nodes, atomic)
        ]
        pairs = np.flatnonzero(~atomic)
        if pairs.size == 0:
            break
        rows, halves = np.unique(_best_splits(nodes[pairs], mem, tags), return_inverse=True)
        levels.append((trees, pairs, halves.reshape(-1, 2)))
        nodes = mem.traces[rows]
    else:
        raise DecodeError("decode divergence: depth limit exceeded")
    for above, pairs, halves in reversed(levels):
        for i, (left, right) in zip(pairs, halves):
            above[i] = Pair(trees[left], trees[right])
        trees = above
    return trees[0]


def _best_splits(pairs: Vector, mem: CleanupMemory, tags: TagSet) -> np.ndarray:
    """Stored row indices (left, right) of the best split of each pair node in ``pairs``.

    Deeply nested pairs rebind the same role tags, which makes their spectra
    spiky; a lone hardmax recall per half then occasionally prefers a sibling
    row.  So each node's unbound halves shortlist the ``DECODE_SHORTLIST``
    rows of highest activation, and the node keeps the split whose rebuilt
    ``L * a + R * b + PHI`` is most similar to it (the true halves rebuild its
    exact direction, a wrong half scores visibly lower).  Every node's 2
    probes share one shortlist pass; then, for each chunk of
    ``DECODE_SCORE_CHUNK`` nodes, each role's candidates are bound in one
    batch and one ``hrr.similarity`` product scores the k x k splits of every
    node, so the rebuilt splits take memory for one chunk, not for the whole
    level.  Ties go to the first split in left-major order, and a NaN score
    never wins.
    """
    n = len(pairs)
    probes = np.concatenate([tags.unbind(tags.left, pairs), tags.unbind(tags.right, pairs)])
    top = mem.shortlist(probes, DECODE_SHORTLIST)
    lefts, rights = top[:n], top[n:]
    chunks = [slice(i, i + DECODE_SCORE_CHUNK) for i in range(0, n, DECODE_SCORE_CHUNK)]
    scores = np.concatenate([_split_scores(pairs[c], lefts[c], rights[c], mem, tags) for c in chunks])
    scores[np.isnan(scores)] = -np.inf
    if (scores == -np.inf).all(axis=1).any():
        raise DecodeError("decode failed: every split of a pair node scores NaN")
    best = scores.argmax(axis=1)
    k = top.shape[1]
    return np.stack([lefts[np.arange(n), best // k], rights[np.arange(n), best % k]], axis=1)


def _split_scores(
    pairs: Vector, lefts: np.ndarray, rights: np.ndarray, mem: CleanupMemory, tags: TagSet
) -> Vector:
    """Similarity of each pair node to its k x k splits rebuilt from stored rows, left-major."""
    (n, k), dim = lefts.shape, pairs.shape[1]
    bound_lefts = hrr.bind_coords(tags.left, mem.traces[lefts.ravel()]).reshape(n, k, 1, dim)
    bound_rights = hrr.bind_coords(tags.right, mem.traces[rights.ravel()]).reshape(n, 1, k, dim)
    return hrr.similarity(bound_lefts + bound_rights + tags.phi, pairs[:, None, None]).reshape(n, k * k)
