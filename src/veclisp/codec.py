"""Codec between symbolic trees and their vector encodings.

A pair is the normalized superposition of its halves bound to the role tags L
and R, plus the structure marker PHI; building one stores both halves in the
cleanup memory so they can be recovered later by unbind-and-recall.  Atoms are
registry draws.  Reserved tag names start with '#', which the reader cannot
produce, so they never collide with user atoms; NIL, T and F are deliberately
the ordinary atoms of those names.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hrr
from .cleanup import CleanupMemory
from .hrr import AtomRegistry, Thresholds, Vector
from .reader import Atom, Pair, SExpr

__all__ = [
    "TagSet",
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
RHO_NAME = "#RHO"
DONE_NAME = "#DONE"
GENSYM_PREFIX = "#G"

DECODE_DEPTH_LIMIT = 64


class DecodeError(RuntimeError):
    """Decoding walked deeper than the depth limit or hit an empty store."""


@dataclass(frozen=True)
class TagSet:
    """The reserved vectors every session shares: roles, markers, constants.

    Every bind and unbind of the codec and the evaluator has a role tag, L or
    R, as its first operand.  On first use the tag set computes the real FFT
    of each role tag and of its involution and keeps them; ``bind`` and
    ``unbind`` use them and return bitwise what ``hrr.bind`` and
    ``hrr.unbind`` return.
    """

    left: Vector
    right: Vector
    phi: Vector
    rho: Vector
    nil: Vector
    true: Vector
    false: Vector
    done: Vector

    @cached_property
    def _roles(self) -> dict[int, tuple[np.ndarray, Vector, np.ndarray]]:
        """id of a role tag -> its spectrum, its involution and the involution's spectrum."""
        roles = {}
        for tag in (self.left, self.right):
            inverse = hrr.involution(tag)
            roles[id(tag)] = (np.fft.rfft(tag), inverse, np.fft.rfft(inverse))
        return roles

    @classmethod
    def from_registry(cls, registry: AtomRegistry) -> "TagSet":
        """The registry's tag set, built once per registry."""
        tags = _TAG_SETS.get(registry)
        if tags is None:
            tags = _TAG_SETS[registry] = cls(
                left=registry.vector(L_NAME),
                right=registry.vector(R_NAME),
                phi=registry.vector(PHI_NAME),
                rho=registry.vector(RHO_NAME),
                nil=registry.vector("NIL"),
                true=registry.vector("T"),
                false=registry.vector("F"),
                done=registry.vector(DONE_NAME),
            )
        return tags

    def bind(self, role: Vector, v: Vector) -> Vector:
        """``hrr.bind(role, v)`` for ``role`` the tag set's ``left`` or ``right``."""
        return hrr.bind(role, v, spectrum=self._roles[id(role)][0])

    def unbind(self, role: Vector, w: Vector) -> Vector:
        """``hrr.unbind(role, w)`` for ``role`` the tag set's ``left`` or ``right``."""
        _, inverse, spectrum = self._roles[id(role)]
        return hrr.bind(inverse, w, spectrum=spectrum)


_TAG_SETS: "weakref.WeakKeyDictionary[AtomRegistry, TagSet]" = weakref.WeakKeyDictionary()


def cons_vec(a: Vector, b: Vector, tags: TagSet, mem: CleanupMemory) -> Vector:
    """Pair constructor: normalize(L*a + R*b + PHI), storing a and b as traces."""
    out = hrr.normalize(tags.bind(tags.left, a) + tags.bind(tags.right, b) + tags.phi)
    mem.append(a)
    mem.append(b)
    return out


def is_atomic_vec(v: Vector, tags: TagSet, t: Thresholds) -> bool:
    """A vector is atomic when it carries no visible PHI component."""
    return hrr.similarity(v, tags.phi) < t.theta_down


def encode(e: SExpr, registry: AtomRegistry, mem: CleanupMemory) -> Vector:
    """Encode a tree bottom-up; every sub-pair's halves end up in memory."""
    tags = TagSet.from_registry(registry)
    return _encode(e, registry, mem, tags)


def _encode(e: SExpr, registry: AtomRegistry, mem: CleanupMemory, tags: TagSet) -> Vector:
    if isinstance(e, Atom):
        return registry.vector(e.name)
    left = _encode(e.left, registry, mem, tags)
    right = _encode(e.right, registry, mem, tags)
    return cons_vec(left, right, tags, mem)


def decode(
    v: Vector,
    mem: CleanupMemory,
    registry: AtomRegistry,
    t: Thresholds,
    max_depth: int = DECODE_DEPTH_LIMIT,
) -> SExpr:
    """Decode a vector back to a tree via nearest atoms and memory recall."""
    tags = TagSet.from_registry(registry)
    return _decode(v, mem, registry, t, tags, max_depth)


DECODE_SHORTLIST = 3


def _shortlist(mem: CleanupMemory, probe: Vector) -> list[Vector]:
    return [mem.traces[i].copy() for i in mem.shortlist(probe, DECODE_SHORTLIST)]


def _decode(
    v: Vector,
    mem: CleanupMemory,
    registry: AtomRegistry,
    t: Thresholds,
    tags: TagSet,
    depth: int,
) -> SExpr:
    if depth <= 0:
        raise DecodeError("decode divergence: depth limit exceeded")
    if is_atomic_vec(v, tags, t):
        name, _ = registry.nearest(v)
        return Atom(name)
    left, right = _best_split(v, mem, tags)
    return Pair(
        _decode(left, mem, registry, t, tags, depth - 1),
        _decode(right, mem, registry, t, tags, depth - 1),
    )


def _best_split(v: Vector, mem: CleanupMemory, tags: TagSet) -> tuple[Vector, Vector]:
    """The shortlisted halves whose rebuilt pair is most similar to ``v``.

    Deeply nested pairs rebind the same role tags, which makes their spectra
    spiky; a lone hardmax recall per half then occasionally prefers a sibling
    row.  Re-encoding candidate halves and comparing against v picks the split
    that actually reproduces it (the true halves rebuild v's exact direction, a
    wrong half scores visibly lower).  Each candidate half is bound once and
    its bound vector reused across the other half's list; the candidates die
    with this frame, before the halves are decoded.
    """
    lefts = _shortlist(mem, tags.unbind(tags.left, v))
    rights = _shortlist(mem, tags.unbind(tags.right, v))
    bound_rights = [tags.bind(tags.right, right) for right in rights]
    best_sim = -np.inf
    best = None
    for left in lefts:
        bound_left = tags.bind(tags.left, left)
        for right, bound_right in zip(rights, bound_rights):
            s = hrr.similarity(bound_left + bound_right + tags.phi, v)
            if s > best_sim:
                best_sim = s
                best = (left, right)
    assert best is not None
    return best
