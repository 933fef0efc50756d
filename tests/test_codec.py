"""Codec tests: the pair construction formula, atomicity probing, and
encode/decode round-trips through the cleanup memory, all in the registry's
orthonormal Fourier coordinates."""
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
    return reg, TagSet.of(reg), CleanupMemory(DIM)


def test_tagset_is_deterministic_per_registry():
    reg1, tags1, _ = fresh(seed=3)
    reg2, tags2, _ = fresh(seed=3)
    assert np.array_equal(tags1.phi, tags2.phi)
    assert tags1.left is reg1.coords("#L")
    assert tags2.nil is reg2.coords("NIL")
    # Registries of one (seed, dim) share their atoms, and so one tag set.
    assert tags1 is tags2
    for other in (AtomRegistry(DIM, seed=4), AtomRegistry(DIM // 2, seed=3)):
        tags = TagSet.of(other)
        assert tags is not tags1 and tags.left is other.coords("#L")
    assert TagSet.of(reg1).left is tags1.left


def test_cons_vec_matches_the_role_binding_formula():
    for dim in (64, 257, 2048):
        reg = AtomRegistry(dim, seed=dim)
        tags = TagSet.of(reg)
        a, b, c = (reg.coords(n) for n in "ABC")
        key = codec.cons_vec(c, c, tags)
        other = hrr.to_coords(np.random.default_rng(dim).normal(0.0, 1.0 / np.sqrt(dim), dim))
        for x, y in ((a, b), (a, c), (c, a), (a, key), (key, b), (key, other), (other, other)):
            want = hrr.normalize(hrr.bind_coords(tags.left, x) + hrr.bind_coords(tags.right, y) + tags.phi)
            assert codec.cons_vec(x, y, tags).tobytes() == want.tobytes()
    with pytest.raises(hrr.DimensionMismatch):
        codec.cons_vec(a, np.zeros(2047), tags)


def table_of(keys):
    """A pair table and a lookup cleanup memory holding ``keys`` in order; each key is its own halves."""
    table, mem = codec.PairTable(DIM), CleanupMemory(DIM, "lookup")
    for k in keys:
        table.intern(k, k, k)
        mem.extend(k)
    return table, mem


def unit_keys(rng, m):
    return [hrr.normalize(v) for v in rng.normal(size=(m, DIM))]


def test_pair_table_finds_the_lowest_row_of_a_bitwise_copy():
    keys = unit_keys(np.random.default_rng(1), 5)
    # The copies go in too: the table keeps the first row of those bytes, as
    # the lookup memory's ``find`` does.
    table, mem = table_of(keys + [keys[1].copy(), keys[3].copy()])
    assert len(table) == 5 and len(mem) == 7
    for i, k in enumerate(keys):
        assert table.find(k.copy()) == mem.find(k.copy()) == i
        assert table.intern(k.copy(), k, k) == i
    nudged = keys[2].copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert table.find(nudged) is None and mem.find(nudged) is None
    # The bytes index hashes a key's first KEY_PREFIX entries; keys that share
    # them are still told apart in full.
    twin = keys[2].copy()
    twin[hrr.KEY_PREFIX :] = keys[4][hrr.KEY_PREFIX :]
    assert table.find(twin) is None and table.intern(twin, twin, twin) == 5
    assert table.find(keys[2].copy()) == 2 and table.find(twin.copy()) == 5
    assert table.find(keys[4].copy()) == 4


@pytest.mark.parametrize("m", [10, 100])  # below and above the memory's 64-row screen floor
def test_pair_table_nearest_is_the_lookup_memory_nearest(m):
    rng = np.random.default_rng(m)
    keys = unit_keys(rng, m)
    # Two keys that differ only in the sign of a zero score alike against
    # every probe; the tie goes to the lower row.
    keys[3][0] = 0.0
    keys[m // 2] = keys[3].copy()
    keys[m // 2][0] = -0.0
    table, mem = table_of(keys)
    assert len(table) == m
    probes = keys + [k + 0.5 * v for k, v in zip(keys, unit_keys(rng, m))] + unit_keys(rng, m)
    for p in probes:
        assert table.nearest(p) == mem.nearest(p)
    assert table.nearest(keys[m // 2]) == 3


def test_pair_table_builds_its_key_matrix_on_the_first_scan_only():
    keys = unit_keys(np.random.default_rng(2), 40)
    table, _ = table_of(keys[:20])
    assert table.held(keys[4]) == 4 and table.held(keys[4].copy()) is None
    assert table.row(keys[5], 0.2) == 5 and table.row(keys[6].copy(), 0.2) == 6
    assert table._matrix is None
    assert table.row(keys[7] + 0.1 * keys[8], 0.2) == 7  # no exact key: ranked
    assert np.array_equal(table.traces, np.stack(keys[:20]))
    for k in keys[20:]:
        table.intern(k, k, k)
    assert np.array_equal(table.traces, np.stack(keys))
    assert table.row(-keys[9], 0.2) is None  # the nearest key is below the floor


def test_encode_stores_both_halves_of_each_pair():
    reg, tags, mem = fresh()
    a, b, c = (reg.coords(n) for n in "ABC")
    codec.encode(parse("((A . B) . C)"), reg, mem)
    # Bottom up, left half before right: A and B, then (A . B) and C.
    want = [a, b, codec.cons_vec(a, b, tags), c]
    assert len(mem) == len(want)
    for row, v in zip(mem.traces, want):
        assert row.tobytes() == v.tobytes()


def test_atomicity_probe():
    reg, tags, mem = fresh()
    assert codec.is_atomic_vec(reg.coords("A"), tags, THRESH)
    assert codec.is_atomic_vec(tags.nil, tags, THRESH)
    pair = codec.cons_vec(reg.coords("A"), reg.coords("B"), tags)
    assert not codec.is_atomic_vec(pair, tags, THRESH)


def test_unbind_recall_recovers_pair_halves():
    reg, tags, mem = fresh()
    a = reg.coords("A")
    b = reg.coords("B")
    v = codec.cons_vec(a, b, tags)
    mem.append(a)
    mem.append(b)
    assert np.array_equal(mem.recall(tags.unbind(tags.left, v)), a)
    assert np.array_equal(mem.recall(tags.unbind(tags.right, v)), b)


def test_encode_composes_cons_vec_bottom_up():
    reg, tags, mem = fresh()
    tree = parse("(A . B)")
    got = codec.encode(tree, reg, mem)
    want = codec.cons_vec(reg.coords("A"), reg.coords("B"), tags)
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


@pytest.mark.parametrize(("dim", "seed"), [(2048, 1729), (1024, 0), (512, 3)])
def test_swap_twins_decode_to_themselves(dim, seed):
    # Binding commutes, so the cross terms L*R*b + R*L*c of ((a . b) . (c . d))
    # are those of ((a . c) . (b . d)): the two pairs' keys meet at a cosine
    # of about 0.9999, and each must still be stored as its own row.
    reg = AtomRegistry(dim, seed=seed)
    mem = CleanupMemory(dim)
    trees = [parse("(((H . H) . (K . J)) . A)"), parse("(((H . K) . (H . J)) . A)")]
    vecs = [codec.encode(tree, reg, mem) for tree in trees]
    # H, K, J, A, the four inner pairs and the two twins.
    assert len(mem) == 10
    for tree, v in zip(trees, vecs):
        assert codec.decode(v, mem, reg, THRESH) == tree


class CountingMemory(CleanupMemory):
    """A store counting its shortlist calls, the probes they rank and the float64 scans behind them."""

    shortlist_calls = shortlist_probes = full_scans = 0

    def shortlist(self, p, k):
        self.shortlist_calls += 1
        self.shortlist_probes += len(np.atleast_2d(p))
        return super().shortlist(p, k)

    def activations(self, p):
        self.full_scans += 1
        return super().activations(p)


def reference_decode(v, mem, reg, t, depth=codec.DECODE_DEPTH_LIMIT):
    """Reference decoder in the time domain: float64 shortlists, and a 3x3 loop that rebinds both halves per split.

    The probe and the stored rows are taken back from coordinates with
    ``hrr.from_coords``; tags, binds and unbinds are the registry's vectors
    and ``hrr.bind``/``hrr.unbind``, and a leaf is named by the registry's
    scan of its coordinates.
    """
    left, right, phi = (reg.vector(name) for name in (codec.L_NAME, codec.R_NAME, codec.PHI_NAME))
    rows = hrr.from_coords(mem.traces)

    def shortlist(probe):
        order = np.argsort(rows @ probe)[::-1][: codec.DECODE_SHORTLIST]
        return [rows[i].copy() for i in order]

    def walk(v, depth):
        if depth <= 0:
            raise DecodeError("decode divergence: depth limit exceeded")
        if hrr.similarity(v, phi) < t.theta_down:
            return Atom(reg.nearest(hrr.to_coords(v))[0])
        best_sim = -np.inf
        best = None
        for a in shortlist(hrr.unbind(left, v)):
            for b in shortlist(hrr.unbind(right, v)):
                s = hrr.similarity(hrr.bind(left, a) + hrr.bind(right, b) + phi, v)
                if s > best_sim:
                    best_sim = s
                    best = (a, b)
        return Pair(walk(best[0], depth - 1), walk(best[1], depth - 1))

    return walk(hrr.from_coords(v), depth)


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
    assert 0 < scans < mem.shortlist_probes  # the screen decided some probes, the float64 sort the rest


def test_decode_depth_limit_stops_self_reference():
    reg, tags, _ = fresh()
    seedling = reg.coords("A")
    looped = codec.cons_vec(seedling, seedling, tags)
    for max_depth in (1, 5, codec.DECODE_DEPTH_LIMIT):
        mem = CountingMemory(DIM)
        mem.append(looped)  # both halves now recall to the pair itself
        with pytest.raises(DecodeError, match="depth limit"):
            codec.decode(looped, mem, reg, THRESH, max_depth=max_depth)
        # Both halves split into the same row, so each level holds that one row.
        assert mem.shortlist_calls <= max_depth
        assert mem.shortlist_probes <= 2 * max_depth


def test_decode_walks_lists_deeper_than_the_recursion_limit():
    import inspect
    import sys

    reg, tags, mem = fresh(seed=2)
    names = [f"X{i}" for i in range(40)]
    v = tags.nil
    for name in reversed(names):  # a cons loop: encode itself recurses
        a = reg.coords(name)
        mem.append(a)
        mem.append(v)
        v = codec.cons_vec(a, v, tags)
    limit = sys.getrecursionlimit()
    # Room for this frame's callees, far less than one frame per list element.
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        got = codec.decode(v, mem, reg, THRESH)
    finally:
        sys.setrecursionlimit(limit)
    for name in names:
        assert got.left == Atom(name)
        got = got.right
    assert got == NIL


def test_decode_splits_repeated_subtrees_once_per_level():
    reg, _, _ = fresh(seed=3)
    mem = CountingMemory(DIM)
    tree = parse("((A . B) . (A . B))")
    v = codec.encode(tree, reg, mem)
    assert codec.decode(v, mem, reg, THRESH) == tree
    # The root's two probes, then the one (A . B) row's two.
    assert mem.shortlist_calls == 2
    assert mem.shortlist_probes == 4


def test_decode_scores_wide_levels_in_chunks(monkeypatch):
    reg, _, mem = fresh(seed=4)

    def full(depth, i=0):
        if depth == 0:
            return Atom(f"A{i}")
        return Pair(full(depth - 1, 2 * i), full(depth - 1, 2 * i + 1))

    tree = full(4)
    v = codec.encode(tree, reg, mem)
    widths = []
    best_splits = codec._best_splits

    def spy(pairs, mem, tags):
        widths.append(len(pairs))
        return best_splits(pairs, mem, tags)

    monkeypatch.setattr(codec, "_best_splits", spy)
    assert codec.decode(v, mem, reg, THRESH) == tree
    assert widths == [1, 2, 4, 8]
    # Chunks of 3 nodes, one of them short, pick the same splits.
    monkeypatch.setattr(codec, "DECODE_SCORE_CHUNK", 3)
    assert codec.decode(v, mem, reg, THRESH) == tree


def test_decode_of_a_nan_vector_raises_decode_error():
    reg, _, mem = fresh()
    codec.encode(parse("(A . B)"), reg, mem)
    with pytest.raises(DecodeError, match="NaN"):
        codec.decode(np.full(DIM, np.nan), mem, reg, THRESH)


def test_decode_respects_an_explicit_depth_budget():
    reg, _, mem = fresh()
    v = codec.encode(parse("(A . (B . C))"), reg, mem)
    with pytest.raises(DecodeError):
        codec.decode(v, mem, reg, THRESH, max_depth=2)
    assert codec.decode(v, mem, reg, THRESH, max_depth=3) == parse("(A . (B . C))")


def test_reserved_tag_names_cannot_be_parsed():
    for name in (codec.L_NAME, codec.R_NAME, codec.PHI_NAME, codec.DONE_NAME):
        with pytest.raises(Exception):
            parse(name)


def test_decoded_trees_print_back_to_source():
    reg, _, mem = fresh()
    v = codec.encode(parse("(A (B . C))"), reg, mem)
    assert to_text(codec.decode(v, mem, reg, THRESH)) == "(A (B . C))"
