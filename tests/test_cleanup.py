"""Cleanup memory tests: recall per kind, the limit identities between kinds,
update rules, and the binary snapshot format."""
import numpy as np
import pytest

from veclisp import hrr
from veclisp.cleanup import KINDS, CleanupMemory, ConvergenceError, EmptyMemoryError


def unit_rows(rng, m, n):
    rows = rng.normal(0.0, 1.0, (m, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def filled(rng, m=20, n=256, **kw):
    mem = CleanupMemory(n, **kw)
    mem.extend(unit_rows(rng, m, n))
    return mem


# -- storage ------------------------------------------------------------------


def test_construction_validates_kind_and_dim():
    with pytest.raises(ValueError):
        CleanupMemory(64, "mystery")
    with pytest.raises(ValueError):
        CleanupMemory(0)
    assert set(KINDS) == {"lookup", "mhn", "minerva2", "hopfield", "grossberg"}


def test_append_grows_and_dedups():
    rng = np.random.default_rng(0)
    mem = CleanupMemory(64)
    a, b = unit_rows(rng, 2, 64)
    assert mem.append(a).append(b) is mem
    assert len(mem) == 2
    mem.append(a.copy())  # a bitwise copy is stored once
    assert len(mem) == 2
    tail = a.copy()
    tail[-1] = np.nextafter(tail[-1], np.inf)  # past the hashed prefix
    mem.append(tail)
    assert len(mem) == 3 and mem.find(tail) == 2
    twin = a + rng.normal(0.0, 1e-4, 64)  # a cosine of about 1 - 3e-7 with a
    mem.append(twin)
    assert len(mem) == 4 and mem.find(twin) == 3
    assert mem.find(a) == 0


def test_append_rejects_wrong_shape():
    with pytest.raises(ValueError):
        CleanupMemory(64).append(np.zeros(65))


def test_growth_past_initial_capacity_preserves_rows():
    rng = np.random.default_rng(1)
    rows = unit_rows(rng, 40, 32)
    mem = CleanupMemory(32)
    for r in rows:
        mem.append(r)
    assert len(mem) == 40
    assert np.array_equal(mem.traces, rows)


def test_extend_bulk_skips_dedup_by_default():
    rng = np.random.default_rng(2)
    rows = unit_rows(rng, 5, 32)
    mem = CleanupMemory(32)
    mem.extend(rows)
    mem.extend(rows)
    assert len(mem) == 10
    mem2 = CleanupMemory(32)
    mem2.extend(rows)
    for r in rows:
        mem2.append(r)
    assert len(mem2) == 5


class ScreenCounting(CleanupMemory):
    """The store under test, counting the scans its float32 screen leaves to float64."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.full_activations = 0

    def activations(self, p):
        self.full_activations += 1
        return super().activations(p)

    def rebuilt(self, rows):
        """A new store of ``rows`` that counts on from this store's counts."""
        new = ScreenCounting(self.dim)
        new.extend(rows)
        new.full_activations = self.full_activations
        return new


def out_of_range(row, kind):
    """A trace the float32 screen must not bound."""
    return [
        np.zeros_like(row),
        np.full_like(row, np.nan),
        np.full_like(row, np.inf),
        1e-160 * row,
        1e20 * row,
        row.astype(np.float32),
        2.0**-135 * row,  # subnormal in float32: screened sums err past the bound
    ][kind]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN probe
def test_screened_recall_returns_the_float64_argmax_row():
    rng = np.random.default_rng(24)
    n = 512
    mem = CleanupMemory(n)
    rows = unit_rows(rng, 80, n)
    mem.extend(rows)
    mem.extend(rows[7])  # an exact duplicate of row 7
    mem.append(rows[11] + rng.normal(0.0, 1e-9, n))  # a near twin of row 11
    # Sign rows that tie exactly with a probe that is zero where they differ;
    # entries of +-1/16 keep every partial sum exact in any order.
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0) / 16.0
    flipped = signs.copy()
    flipped[0] = -flipped[0]
    mem.append(flipped)
    mem.append(signs)
    tie_probe = signs.copy()
    tie_probe[0] = 0.0

    def reference_lookup(p):
        return mem.traces[np.argmax(mem.traces @ p)].copy()

    def reference_hopfield(p):
        x = p
        for _ in range(mem.max_iters):
            nxt = reference_lookup(x)
            if np.linalg.norm(nxt - x) < mem.tol:
                return nxt
            x = nxt
        raise AssertionError("reference hopfield did not converge")

    def reference_grossberg(p):
        v = reference_lookup(p) + p
        return 1.0 / (1.0 + np.exp(-(v / np.abs(v).sum())))

    def check(probes):
        for p in probes:
            assert mem.recall_lookup(p).tobytes() == reference_lookup(p).tobytes()
            assert mem.recall_hopfield(p).tobytes() == reference_hopfield(p).tobytes()
            assert mem.recall_grossberg(p).tobytes() == reference_grossberg(p).tobytes()

    clear = [rows[i] + rng.normal(0.0, 0.02, n) for i in range(80) if i not in (7, 11)]
    check(clear)
    ties = [rows[7] + rng.normal(0.0, 0.02, n), rows[11] + rng.normal(0.0, 0.02, n), tie_probe]
    check(ties)
    assert np.array_equal(mem.recall_lookup(tie_probe), flipped)  # the lower index wins
    check([out_of_range(rows[3], k) for k in range(7)])
    # An out-of-range row among the stored ones.
    mem.append(1e20 * rows[5])
    check(clear[:5] + ties)


def test_find_is_the_nearest_row_of_every_stored_row():
    rng = np.random.default_rng(31)
    n = 512
    base = unit_rows(rng, 40, n)
    twins = unit_rows(np.random.default_rng(32), 40, n) * 1e-5 + base  # cosine about 1 - 5e-11 with base
    mem = CleanupMemory(n)
    mem.extend(np.concatenate([base, twins / np.linalg.norm(twins, axis=1, keepdims=True)]))
    for i, row in enumerate(mem.traces):
        assert mem.find(row) == mem.nearest(row) == i
        assert mem.find(row.copy()) == i
        for j in (0, n - 1):  # inside and past the hashed prefix
            nudged = row.copy()
            nudged[j] = np.nextafter(nudged[j], np.inf)
            assert mem.find(nudged) is None
    mem.extend(mem.traces[3].copy())  # an exact duplicate: the lower index wins both
    assert mem.find(mem.traces[-1]) == mem.nearest(mem.traces[-1]) == 3
    assert mem.find(np.zeros(n)) is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN and infinite probes and rows
def test_screened_shortlist_is_the_float64_argsort():
    rng = np.random.default_rng(27)
    n = 512
    mem = ScreenCounting(n)
    mem.extend(unit_rows(rng, 70, n))
    margin = mem._margin
    probes_ranked = 0

    def check(probes, k=3, store=None):
        # Every probe alone, then all of them as one block: each row of the
        # block's shortlist is that probe's float64 argsort.
        nonlocal probes_ranked
        store = mem if store is None else store
        probes = np.atleast_2d(probes)
        want = [np.argsort(store.traces @ p)[::-1][:k].tolist() for p in probes]
        assert [store.shortlist(p, k).tolist() for p in probes] == want
        block = store.shortlist(probes, k)
        assert block.shape == (len(probes), len(want[0]))
        assert block.tolist() == want
        if store is mem:
            probes_ranked += 2 * len(probes)

    def planted(p, gaps):
        # Rows whose activations against the unit probe p step down from 0.9
        # by gap * margin each; the screen's bound on one row is about margin.
        c, out = 0.9, []
        for g in (0.0,) + gaps:
            c -= g * margin
            q = rng.normal(0.0, 1.0, n)
            q -= (q @ p) * p
            out.append(c * p + np.sqrt(1.0 - c * c) * q / np.linalg.norm(q))
        return out

    def planting(at, rows):
        # The store rebuilt with ``rows`` in place of the rows at indices ``at``.
        traces = mem.traces.copy()
        traces[at] = rows
        return mem.rebuilt(traces)

    for _ in range(300):
        p = unit_rows(rng, 1, n)[0]
        gaps = tuple(rng.choice([-2.0, -0.5, -1e-5, 1e-5, 0.5, 2.0, 50.0], size=3))
        rows = planted(p, gaps)
        mem = planting(rng.choice(len(mem), size=len(rows), replace=False), rows)
        noisy = p + rng.normal(0.0, 0.02, n)
        for k in (1, 3, 4):
            check([p, noisy, out_of_range(p, 6)], k)
    # Exact ties: a duplicate of the top row, and distinct rows that tie.
    p = unit_rows(rng, 1, n)[0]
    top = planted(p, (100.0,))
    mem = planting([0, 1], top)
    mem.extend(top[0])
    check(p)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0) / 16.0
    flipped = signs.copy()
    flipped[0] = -flipped[0]
    mem.append(flipped)
    mem.append(signs)
    tie_probe = signs.copy()
    tie_probe[0] = 0.0
    check(tie_probe)
    for k in (0, 1, 3, 4, len(mem) - 1, len(mem), len(mem) + 5):
        check([p, tie_probe], k)
    # Probes the screen cannot bound, alone and in a block with one it can.
    for kind in range(7):
        check(out_of_range(p, kind))
    check([p] + [out_of_range(p, kind) for kind in (0, 1, 2, 3, 4, 6)])
    check([out_of_range(p, 5)] * 2)  # a float32 block
    # One out-of-range row turns the screen off; a row of NaNs makes NaN
    # activations, which the float64 sort places as it always has.
    for bad in (1e20 * p, np.full(n, np.inf), np.full(n, np.nan)):
        mem = planting([5], [bad])
        check([p, p + rng.normal(0.0, 0.02, n)])
    # Small stores, and stores of at most k rows.
    for m in (1, 2, 3, 4, 20, 63):
        small = CleanupMemory(n)
        small.extend(unit_rows(rng, m, n))
        q = rng.normal(0.0, 1.0, (3, n))
        for k in (0, 1, 3, 4, m - 1, m, m + 5):
            check(q, k, small)
    with pytest.raises(EmptyMemoryError):
        CleanupMemory(n).shortlist(p, 3)
    with pytest.raises(EmptyMemoryError):
        CleanupMemory(n).shortlist(np.stack([p, p]), 3)
    # Both the screen's own answers and the float64 fall-through ran.
    assert 0 < mem.full_activations < probes_ranked


def mirrored(memory):
    """The float32 block, the norms and the row index follow the float64 rows."""
    m, rows = len(memory), memory.traces
    assert memory._buf32[:m].tobytes() == rows.astype(np.float32).tobytes()
    assert np.allclose(memory._norms[:m], np.linalg.norm(rows, axis=1), rtol=1e-14, atol=0.0)
    index = {}
    for i, row in enumerate(rows):
        index.setdefault(hash(row[: hrr.KEY_PREFIX].tobytes()), []).append(i)
    assert {key: sorted(ix) for key, ix in memory._index.items()} == index


def test_mirror_follows_updates_and_snapshots():
    rng = np.random.default_rng(25)
    n = 512
    m = 70
    mem = filled(rng, m=m, n=n, eta=1.0)
    mirrored(mem)

    def agrees(target, memory):
        # The top row of a shortlist, which ranks through the float32 mirror.
        p = target + rng.normal(0.0, 0.02, n)
        want = memory.traces[np.argmax(memory.traces @ p)]
        assert memory.traces[memory.shortlist(p, 1)[0]].tobytes() == want.tobytes()
        mirrored(memory)

    # RC moves every row onto another row's old place; a stale mirror would
    # still pick the old places.
    before = mem.traces.copy()
    perm = np.roll(np.arange(m), 1)
    mem.apply_update(before[0], before - before[perm], "RC")
    for i in range(m):
        agrees(before[perm[i]], mem)
    # RG rewrites the selected row alone.
    new = unit_rows(rng, 1, n)[0]
    grad = np.zeros((m, n))
    grad[4] = mem.traces[4] - new
    mem.apply_update(mem.traces[4], grad, "RG")
    agrees(new, mem)
    assert np.allclose(mem.recall_lookup(new), new)
    back = CleanupMemory.from_bytes(mem.to_bytes())
    for i in range(m):
        agrees(mem.traces[i], back)
    back.extend(unit_rows(rng, 80, n))  # past the snapshot's capacity
    for i in range(m + 80):
        agrees(back.traces[i], back)
    # RE reweights every row; single appends, float32 ones among them, grow
    # the store past its capacity one row at a time.
    mem.apply_update(mem.traces[3], rng.normal(0.0, 0.1, (m, n)), "RE")
    agrees(mem.traces[3], mem)
    for i, row in enumerate(unit_rows(rng, 70, n)):
        mem.append(row.astype(np.float32) if i % 3 == 0 else row)
        mirrored(mem)
    mem.extend(mem.traces[5].copy())  # a second row under one key
    agrees(mem.traces[5], mem)
    small = CleanupMemory(100)
    small.extend(unit_rows(rng, 20, 100))
    small.append(unit_rows(rng, 1, 100)[0])
    mirrored(small)


def test_recall_from_empty_store_raises():
    with pytest.raises(EmptyMemoryError):
        CleanupMemory(32).recall(np.zeros(32))


# -- recall kinds ----------------------------------------------------------------


def test_lookup_returns_the_exact_stored_row():
    rng = np.random.default_rng(4)
    mem = filled(rng, m=50, n=256)
    probe = mem.traces[17] + rng.normal(0.0, 0.05, 256)
    out = mem.recall_lookup(probe)
    assert np.array_equal(out, mem.traces[17])
    out[0] += 1.0  # the recalled row is a copy, not a view
    assert out[0] != mem.traces[17][0]


def test_lookup_breaks_ties_toward_the_lowest_index():
    mem = CleanupMemory(4)
    mem.extend(np.eye(4)[:2])
    out = mem.recall_lookup(np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(out, np.eye(4)[0])


def test_mhn_beta_zero_is_the_row_mean_exactly():
    rng = np.random.default_rng(5)
    mem = filled(rng, m=12, n=64, kind="mhn")
    out = mem.recall_mhn(rng.normal(0.0, 1.0, 64), beta=0.0)
    assert np.array_equal(out, mem.traces.mean(axis=0))


def test_mhn_large_beta_approaches_lookup():
    rng = np.random.default_rng(6)
    mem = filled(rng, m=30, n=256, kind="mhn", beta=1000.0)
    probe = mem.traces[3]
    assert np.abs(mem.recall_mhn(probe) - mem.recall_lookup(probe)).max() < 1e-6


def test_mhn_rejects_negative_beta():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        filled(rng, m=3, n=32).recall_mhn(np.zeros(32), beta=-1.0)


def test_minerva2_integer_and_real_rho_agree():
    rng = np.random.default_rng(8)
    mem = filled(rng, m=25, n=128, kind="minerva2")
    probe = mem.traces[5] + rng.normal(0.0, 0.1, 128)
    for rho in (1, 3, 5):
        a = mem.recall_minerva2(probe, rho=rho)
        b = mem.recall_minerva2(probe, rho=float(rho))
        assert np.abs(a - b).max() < 1e-9


def test_minerva2_rejects_even_integer_rho():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        filled(rng, m=3, n=32).recall_minerva2(np.zeros(32), rho=2)


def test_minerva2_rho_one_is_the_activation_blend():
    rng = np.random.default_rng(10)
    mem = filled(rng, m=6, n=64, kind="minerva2")
    probe = rng.normal(0.0, 1.0, 64)
    out = mem.recall_minerva2(probe, rho=1)
    assert np.allclose(out, mem.activations(probe) @ mem.traces)


def test_hopfield_converges_to_a_stored_row():
    rng = np.random.default_rng(11)
    mem = filled(rng, m=20, n=256, kind="hopfield")
    probe = mem.traces[9] + rng.normal(0.0, 0.1, 256)
    assert np.array_equal(mem.recall_hopfield(probe), mem.traces[9])


def test_hopfield_convergence_error_carries_the_last_iterate():
    rng = np.random.default_rng(12)
    mem = filled(rng, m=5, n=64, kind="hopfield", max_iters=1)
    probe = mem.traces[2] + rng.normal(0.0, 0.1, 64)
    with pytest.raises(ConvergenceError) as exc:
        mem.recall_hopfield(probe)
    assert np.array_equal(exc.value.last_iterate, mem.traces[2])


def test_grossberg_squashes_into_the_unit_interval():
    rng = np.random.default_rng(13)
    mem = filled(rng, m=10, n=128, kind="grossberg")
    out = mem.recall_grossberg(mem.traces[4] + rng.normal(0.0, 0.05, 128))
    assert out.shape == (128,)
    assert np.all(out > 0.0) and np.all(out < 1.0)
    # Centering the squashed output recovers the selected row's direction.
    best = np.argmax(mem.traces @ (out - 0.5))
    assert best == 4


def test_grossberg_degenerate_zero_state_raises():
    mem = CleanupMemory(8, "grossberg")
    row = np.zeros(8)
    row[0] = 1.0
    mem.append(row)
    with pytest.raises(EmptyMemoryError):
        mem.recall_grossberg(-row)


def test_recall_dispatches_by_kind():
    rng = np.random.default_rng(14)
    rows = unit_rows(rng, 8, 64)
    probe = rows[1] + rng.normal(0.0, 0.05, 64)
    for kind in KINDS:
        mem = CleanupMemory(64, kind)
        mem.extend(rows)
        direct = getattr(mem, f"recall_{kind}")(probe)
        assert np.array_equal(mem.recall(probe), direct)


# -- update rules -----------------------------------------------------------------


def test_update_rc_shifts_every_row():
    rng = np.random.default_rng(15)
    mem = filled(rng, m=6, n=32, eta=0.5)
    before = mem.traces.copy()
    grad = rng.normal(0.0, 1.0, (6, 32))
    mem.apply_update(before[0], grad, "RC")
    assert np.array_equal(mem.traces, before - 0.5 * grad)


def test_update_rg_touches_only_the_selected_row():
    rng = np.random.default_rng(16)
    mem = filled(rng, m=6, n=32, eta=0.25)
    before = mem.traces.copy()
    grad = rng.normal(0.0, 1.0, (6, 32))
    mem.apply_update(before[3], grad, "RG")
    for i in range(6):
        if i == 3:
            assert np.array_equal(mem.traces[i], before[i] - 0.25 * grad[i])
        else:
            assert np.array_equal(mem.traces[i], before[i])


def test_update_re_uses_softmax_weights():
    rng = np.random.default_rng(17)
    mem = filled(rng, m=6, n=32, gamma=2.0, alpha=3.0, eta=0.5)
    before = mem.traces.copy()
    probe = before[1]
    grad = rng.normal(0.0, 1.0, (6, 32))
    mem.apply_update(probe, grad, "RE")
    acts = before @ probe
    z = np.exp(2.0 * acts - (2.0 * acts).max())
    w = 3.0 * z / z.sum()
    assert np.allclose(mem.traces, before - 0.5 * w[:, None] * grad, atol=1e-12)


def test_update_validates_grad_shape_and_rule():
    rng = np.random.default_rng(18)
    mem = filled(rng, m=4, n=32)
    with pytest.raises(ValueError):
        mem.apply_update(mem.traces[0], np.zeros((3, 32)), "RC")
    with pytest.raises(ValueError):
        mem.apply_update(mem.traces[0], np.zeros((4, 32)), "RX")
    with pytest.raises(EmptyMemoryError):
        CleanupMemory(32).apply_update(np.zeros(32), np.zeros((0, 32)), "RC")


# -- serialization ------------------------------------------------------------------


def test_snapshot_round_trip_is_bit_exact():
    rng = np.random.default_rng(19)
    mem = filled(rng, m=9, n=48, kind="minerva2", beta=7.5, rho=5, gamma=2.0,
                 alpha=0.5, eta=0.01, max_iters=33, tol=1e-8)
    back = CleanupMemory.from_bytes(mem.to_bytes())
    assert back.kind == "minerva2"
    assert (back.beta, back.gamma, back.alpha, back.eta) == (7.5, 2.0, 0.5, 0.01)
    assert back.rho == 5 and isinstance(back.rho, int)
    assert back.max_iters == 33 and back.tol == 1e-8
    assert np.array_equal(back.traces, mem.traces)


def test_snapshot_preserves_real_rho():
    mem = CleanupMemory(8, "minerva2", rho=2.5)
    back = CleanupMemory.from_bytes(mem.to_bytes())
    assert back.rho == 2.5 and isinstance(back.rho, float)


def test_snapshot_of_empty_memory():
    back = CleanupMemory.from_bytes(CleanupMemory(16).to_bytes())
    assert len(back) == 0 and back.dim == 16


def test_snapshot_rejects_corruption():
    rng = np.random.default_rng(20)
    blob = filled(rng, m=3, n=16).to_bytes()
    with pytest.raises(ValueError):
        CleanupMemory.from_bytes(blob[:10])
    with pytest.raises(ValueError):
        CleanupMemory.from_bytes(blob[:-8])
    with pytest.raises(ValueError):
        CleanupMemory.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        CleanupMemory.from_bytes(b"VCM2" + blob[4:])  # the layout that carried a dedup threshold
    with pytest.raises(ValueError):
        CleanupMemory.from_bytes(blob[:4] + bytes([len(KINDS)]) + blob[5:])


def test_save_and_load_files(tmp_path):
    rng = np.random.default_rng(21)
    mem = filled(rng, m=5, n=24)
    path = tmp_path / "mem.bin"
    mem.save(str(path))
    back = CleanupMemory.load(str(path))
    assert np.array_equal(back.traces, mem.traces)
