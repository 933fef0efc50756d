"""Codec tests: the pair construction formula, atomicity probing, and
encode/decode round-trips through the cleanup memory."""
import numpy as np
import pytest

from veclisp import codec, hrr
from veclisp.cleanup import CleanupMemory
from veclisp.codec import DecodeError, TagSet
from veclisp.hrr import AtomRegistry, Thresholds
from veclisp.reader import NIL, Atom, Pair, parse, to_text

DIM = 1024
THRESH = Thresholds()


def fresh(seed=0):
    reg = AtomRegistry(DIM, seed=seed)
    return reg, TagSet.from_registry(reg), CleanupMemory(DIM)


def test_tagset_is_deterministic_per_registry():
    reg1, tags1, _ = fresh(seed=3)
    reg2, tags2, _ = fresh(seed=3)
    assert np.array_equal(tags1.phi, tags2.phi)
    assert np.array_equal(tags1.left, reg1.vector("#L"))
    assert np.array_equal(tags2.nil, reg2.vector("NIL"))


def test_cons_vec_matches_the_role_binding_formula():
    reg, tags, mem = fresh()
    a = reg.vector("A")
    b = reg.vector("B")
    got = codec.cons_vec(a, b, tags, mem)
    want = hrr.normalize(hrr.bind(tags.left, a) + hrr.bind(tags.right, b) + tags.phi)
    assert np.array_equal(got, want)


def test_cons_vec_stores_both_halves():
    reg, tags, mem = fresh()
    a = reg.vector("A")
    b = reg.vector("B")
    codec.cons_vec(a, b, tags, mem)
    assert len(mem) == 2
    assert np.array_equal(mem.traces[0], a)
    assert np.array_equal(mem.traces[1], b)


def test_atomicity_probe():
    reg, tags, mem = fresh()
    assert codec.is_atomic_vec(reg.vector("A"), tags, THRESH)
    assert codec.is_atomic_vec(tags.nil, tags, THRESH)
    pair = codec.cons_vec(reg.vector("A"), reg.vector("B"), tags, mem)
    assert not codec.is_atomic_vec(pair, tags, THRESH)


def test_unbind_recall_recovers_pair_halves():
    reg, tags, mem = fresh()
    a = reg.vector("A")
    b = reg.vector("B")
    v = codec.cons_vec(a, b, tags, mem)
    assert np.array_equal(mem.recall(hrr.unbind(tags.left, v)), a)
    assert np.array_equal(mem.recall(hrr.unbind(tags.right, v)), b)


def test_encode_composes_cons_vec_bottom_up():
    reg, tags, mem = fresh()
    tree = parse("(A . B)")
    got = codec.encode(tree, reg, mem)
    mem2 = CleanupMemory(DIM)
    want = codec.cons_vec(reg.vector("A"), reg.vector("B"), tags, mem2)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "text",
    [
        "A",
        "NIL",
        "(A . B)",
        "(A B C)",
        "((A B) (C . D) NIL)",
        "(LAMBDA (P) (CONS P P))",
    ],
)
def test_encode_decode_round_trip(text):
    reg, _, mem = fresh()
    tree = parse(text)
    v = codec.encode(tree, reg, mem)
    assert codec.decode(v, mem, reg, THRESH) == tree


def test_decode_survives_probe_noise():
    reg, _, mem = fresh(seed=5)
    tree = parse("(A (B C) D)")
    v = codec.encode(tree, reg, mem)
    rng = np.random.default_rng(5)
    noisy = v + rng.normal(0.0, 0.02, DIM)
    assert codec.decode(noisy, mem, reg, THRESH) == tree


def test_decode_round_trip_over_random_trees():
    import random

    reg, _, _ = fresh(seed=6)
    names = ["A", "B", "C", "D", "E"]

    def tree(rng, depth):
        if depth == 0 or rng.random() < 0.5:
            return Atom(rng.choice(names))
        return Pair(tree(rng, depth - 1), tree(rng, depth - 1))

    rng = random.Random(99)
    exact = 0
    for _ in range(50):
        t = tree(rng, 4)
        mem = CleanupMemory(DIM)
        v = codec.encode(t, reg, mem)
        if codec.decode(v, mem, reg, THRESH) == t:
            exact += 1
    assert exact == 50


class CountingMemory(CleanupMemory):
    """A store counting its shortlists and the float64 scans behind them."""

    shortlists = full_scans = 0

    def shortlist(self, p, k):
        self.shortlists += 1
        return super().shortlist(p, k)

    def activations(self, p):
        self.full_scans += 1
        return super().activations(p)


def reference_decode(v, mem, reg, t, depth=codec.DECODE_DEPTH_LIMIT):
    """Reference decoder: float64 shortlists, and a 3x3 loop that rebinds both halves per split."""
    tags = TagSet.from_registry(reg)

    def shortlist(probe):
        order = np.argsort(mem.activations(probe))[::-1][: codec.DECODE_SHORTLIST]
        return [mem.traces[i].copy() for i in order]

    def walk(v, depth):
        if depth <= 0:
            raise DecodeError("decode divergence: depth limit exceeded")
        if codec.is_atomic_vec(v, tags, t):
            return Atom(reg.nearest(v)[0])
        best_sim = -np.inf
        best = None
        for left in shortlist(hrr.unbind(tags.left, v)):
            for right in shortlist(hrr.unbind(tags.right, v)):
                rebuilt = hrr.bind(tags.left, left) + hrr.bind(tags.right, right) + tags.phi
                s = hrr.similarity(rebuilt, v)
                if s > best_sim:
                    best_sim = s
                    best = (left, right)
        return Pair(walk(best[0], depth - 1), walk(best[1], depth - 1))

    return walk(v, depth)


def test_decode_matches_the_reference_decoder_on_a_crowded_store():
    import random

    n = 256  # small enough that a shared store decodes some trees wrong
    reg = AtomRegistry(n, seed=7)
    mem = CountingMemory(n)
    names = list("ABCDEFGHJK")

    def tree(rng, depth):
        if depth == 0 or rng.random() < 0.3:
            return Atom(rng.choice(names))
        return Pair(tree(rng, depth - 1), tree(rng, depth - 1))

    rng = random.Random(5)
    trees = [tree(rng, 5) for _ in range(50)]
    vecs = [codec.encode(t, reg, mem) for t in trees]
    noise = np.random.default_rng(8)
    probes = vecs + [v + noise.normal(0.0, 0.05, n) for v in vecs[::3]]

    def outcome(decoder, v):
        try:
            return repr(decoder(v, mem, reg, THRESH))
        except DecodeError as exc:
            return f"DecodeError: {exc}"

    results = []
    scans = 0
    for v in probes:
        before = mem.full_scans
        got = outcome(codec.decode, v)
        scans += mem.full_scans - before
        results.append(got)
        assert got == outcome(reference_decode, v)
    # Wrong trees and decode divergences both occur, and are reproduced.
    assert any(got != repr(t) and not got.startswith("DecodeError") for got, t in zip(results, trees))
    assert any(got.startswith("DecodeError") for got in results)
    assert 0 < scans < mem.shortlists  # the screen decided some shortlists, the float64 sort the rest


def test_decode_depth_limit_stops_self_reference():
    reg, tags, _ = fresh()
    mem = CleanupMemory(DIM)
    seedling = reg.vector("A")
    looped = hrr.normalize(
        hrr.bind(tags.left, seedling) + hrr.bind(tags.right, seedling) + tags.phi
    )
    mem.append(looped)  # both halves now recall to the pair itself
    with pytest.raises(DecodeError):
        codec.decode(looped, mem, reg, THRESH)


def test_decode_respects_an_explicit_depth_budget():
    reg, _, mem = fresh()
    v = codec.encode(parse("(A . (B . C))"), reg, mem)
    with pytest.raises(DecodeError):
        codec.decode(v, mem, reg, THRESH, max_depth=2)
    assert codec.decode(v, mem, reg, THRESH, max_depth=3) == parse("(A . (B . C))")


def test_reserved_tag_names_cannot_be_parsed():
    for name in (codec.L_NAME, codec.R_NAME, codec.PHI_NAME, codec.RHO_NAME, codec.DONE_NAME):
        with pytest.raises(Exception):
            parse(name)


def test_decoded_trees_print_back_to_source():
    reg, _, mem = fresh()
    v = codec.encode(parse("(A (B . C))"), reg, mem)
    assert to_text(codec.decode(v, mem, reg, THRESH)) == "(A (B . C))"
