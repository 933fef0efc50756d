"""Cleanup memory tests: recall per kind, the limit identities between kinds,
update rules, and the binary snapshot format."""
import numpy as np
import pytest

from veclisp import cleanup
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
    mem.append(a).append(b)
    assert len(mem) == 2
    mem.append(a)
    assert len(mem) == 2
    mem.append(a + rng.normal(0.0, 1e-4, 64))
    assert len(mem) == 2
    mem.append(a, dedup=False)
    assert len(mem) == 3


def test_append_rejects_wrong_shape():
    with pytest.raises(ValueError):
        CleanupMemory(64).append(np.zeros(65))


def test_growth_past_initial_capacity_preserves_rows():
    rng = np.random.default_rng(1)
    rows = unit_rows(rng, 40, 32)
    mem = CleanupMemory(32)
    for r in rows:
        mem.append(r, dedup=False)
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
    mem2.extend(rows, dedup=True)
    assert len(mem2) == 5


class ScanOnlyMemory(CleanupMemory):
    """Reference store: the dedup rule as a plain cosine scan over every row."""

    def append(self, t, *, dedup=True):
        m = len(self)
        if dedup and m:
            tn = np.linalg.norm(t)
            if tn > 0.0:
                denom = self._norms[:m] * tn
                with np.errstate(invalid="ignore", divide="ignore"):
                    sims = np.where(denom > 0.0, (self.traces @ t) / denom, 0.0)
                if (sims >= self.dedup_threshold).any():
                    return self
        return super().append(t, dedup=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN and infinite rows
@pytest.mark.parametrize("threshold", [0.99, 0.5, np.nextafter(1.0, 0.0), 1.0])
def test_exact_row_index_stores_what_the_scan_stores(threshold):
    rng = np.random.default_rng(22)
    n = 32
    mem = CleanupMemory(n, dedup_threshold=threshold)
    ref = ScanOnlyMemory(n, dedup_threshold=threshold)
    seen = [unit_rows(rng, 1, n)[0]]
    mem.append(seen[0])
    ref.append(seen[0])

    def stored_row():
        return mem.traces[rng.integers(len(mem))].copy()

    def near_twin():
        row = stored_row()
        if not 1e-3 < np.linalg.norm(row) < 1e3:  # a zero, NaN, infinite or tiny row
            row = seen[0]
        twin = row + rng.normal(0.0, 0.01 * np.linalg.norm(row) / np.sqrt(n), n)
        assert twin @ row / (np.linalg.norm(twin) * np.linalg.norm(row)) >= 0.99
        return twin

    traces = [
        lambda: unit_rows(rng, 1, n)[0],
        lambda: seen[rng.integers(len(seen))].copy(),
        lambda: seen[rng.integers(len(seen))].copy(),
        stored_row,
        near_twin,
        lambda: np.zeros(n),
        lambda: np.full(n, np.nan),
        lambda: 1e-160 * seen[-1],  # its squared norm underflows
        lambda: np.where(rng.random(n) < 0.5, seen[-1], 0.0),
    ]
    for step in range(600):
        op = rng.integers(len(traces) + 4)
        if step == 550:
            # An infinite row scores NaN in every later scan; that must not
            # stop deduplication for good.
            mem.append(np.full(n, np.inf), dedup=False)
            ref.append(np.full(n, np.inf), dedup=False)
            finite = [i for i in range(len(mem)) if 1e-3 < np.linalg.norm(mem.traces[i]) < 1e3]
            t = mem.traces[finite[-1]].copy()
            before = len(mem)
            mem.append(t)
            ref.append(t)
            if threshold <= 0.99:  # nearer 1, rounding can keep an exact repeat out
                assert len(mem) == before
            t = None
        elif op < len(traces):
            t = traces[op]()
        elif op == len(traces):
            i, t = rng.integers(len(mem)), [unit_rows(rng, 1, n)[0], stored_row()][rng.integers(2)]
            mem.set_row(i, t)
            ref.set_row(i, t)
            t = None
        elif op == len(traces) + 1:
            grad = rng.normal(0.0, 0.01, (len(mem), n))
            rule = ["RG", "RC"][rng.integers(2)]
            mem.apply_update(seen[-1], grad, rule)
            ref.apply_update(seen[-1], grad, rule)
            t = None
        elif op == len(traces) + 2:
            rows = np.stack([stored_row(), unit_rows(rng, 1, n)[0], seen[-1]])
            dedup = bool(rng.integers(2))
            mem.extend(rows, dedup=dedup)
            ref.extend(rows, dedup=dedup)
            t = None
        else:
            mem = CleanupMemory.from_bytes(mem.to_bytes())
            ref = ScanOnlyMemory.from_bytes(ref.to_bytes())
            t = None
        if t is not None:
            dedup = bool(rng.integers(8))
            mem.append(t, dedup=dedup)
            ref.append(t, dedup=dedup)
            seen.append(t)
        assert len(mem) == len(ref)
        assert mem.traces.tobytes() == ref.traces.tobytes()
    assert mem.dedup_threshold == threshold


class ScreenCounting(CleanupMemory):
    """The store under test, counting the scans its float32 screen leaves to float64."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.dedup_checks = self.dedup_scans = self.full_activations = 0

    def _is_duplicate(self, t, tn):
        self.dedup_checks += 1
        return super()._is_duplicate(t, tn)

    def _scan_duplicate(self, t, tn):
        self.dedup_scans += 1
        return super()._scan_duplicate(t, tn)

    def activations(self, p):
        self.full_activations += 1
        return super().activations(p)


def out_of_range(row, kind):
    """A trace the float32 screen must not bound."""
    return [
        np.zeros_like(row),
        np.full_like(row, np.nan),
        np.full_like(row, np.inf),
        1e-160 * row,
        1e20 * row,
        row.astype(np.float32),
    ][kind]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN and infinite rows
@pytest.mark.parametrize("threshold", [0.99, 0.5])
def test_float32_screen_stores_what_the_scan_stores(threshold):
    rng = np.random.default_rng(23)
    n = 512
    mem = ScreenCounting(n, dedup_threshold=threshold)
    ref = ScanOnlyMemory(n, dedup_threshold=threshold)
    margin = mem._margin
    for row in unit_rows(rng, 4, n):
        mem.append(row)
        ref.append(row)

    def in_range():
        norms = np.linalg.norm(mem.traces, axis=1)
        return np.flatnonzero((norms > 1e-3) & (norms < 1e3))

    def planted():
        # Cosine threshold +- k * margin with a stored row: k = 2 sits outside
        # the band left to the float64 scan, k = 0.5 inside it, and k = 1e-5
        # inside float32's own rounding error.
        r = mem.traces[rng.choice(in_range())]
        r = r / np.linalg.norm(r)
        q = rng.normal(0.0, 1.0, n)
        q -= (q @ r) * r
        q /= np.linalg.norm(q)
        c = threshold + rng.choice([-2.0, -0.5, -1e-5, 1e-5, 0.5, 2.0]) * margin
        return rng.uniform(0.5, 2.0) * (c * r + np.sqrt(1.0 - c * c) * q)

    for _ in range(500):
        op = rng.choice(6, p=[0.15, 0.15, 0.4, 0.1, 0.1, 0.1])
        if op == 5:
            # Bring every out-of-range row back into range, turning the screen on.
            norms = np.linalg.norm(mem.traces, axis=1)
            for i in np.flatnonzero(~((norms > 1e-3) & (norms < 1e3))):
                t = unit_rows(rng, 1, n)[0]
                mem.set_row(i, t)
                ref.set_row(i, t)
        else:
            dedup = True
            if op == 0:
                t = rng.uniform(0.5, 2.0) * unit_rows(rng, 1, n)[0]
            elif op == 1:
                t = mem.traces[rng.choice(in_range())].copy()
            elif op in (2, 3):
                t = planted()
            else:
                base = [unit_rows(rng, 1, n)[0], mem.traces[rng.choice(in_range())]][rng.integers(2)]
                t = out_of_range(base, rng.integers(6))
                dedup = bool(rng.integers(2))
            mem.append(t, dedup=dedup)
            ref.append(t, dedup=dedup)
        assert len(mem) == len(ref)
        assert mem.traces.tobytes() == ref.traces.tobytes()
    # Both the screen's own decisions and the float64 fall-through ran.
    assert 0 < mem.dedup_scans < mem.dedup_checks


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN probe
def test_screened_recall_returns_the_float64_argmax_row():
    rng = np.random.default_rng(24)
    n = 512
    mem = ScreenCounting(n)
    rows = unit_rows(rng, 80, n)  # past the row floor of ranking through the screen
    mem.extend(rows)
    mem.append(rows[7], dedup=False)  # an exact duplicate of row 7
    mem.append(rows[11] + rng.normal(0.0, 1e-9, n), dedup=False)  # a near twin of row 11
    # Sign rows that tie exactly with a probe that is zero where they differ;
    # entries of +-1/16 keep every partial sum exact in any order.
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0) / 16.0
    flipped = signs.copy()
    flipped[0] = -flipped[0]
    mem.append(flipped, dedup=False)
    mem.append(signs, dedup=False)
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
    assert mem.full_activations == 0  # the screen decided every clear winner
    ties = [rows[7] + rng.normal(0.0, 0.02, n), rows[11] + rng.normal(0.0, 0.02, n), tie_probe]
    check(ties)
    assert mem.full_activations > 0
    assert np.array_equal(mem.recall_lookup(tie_probe), flipped)  # the lower index wins
    check([out_of_range(rows[3], k) for k in range(6)])
    # One out-of-range row turns the screen off; recall is unchanged.
    mem.append(1e20 * rows[5], dedup=False)
    check(clear[:5] + ties)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN and infinite probes and rows
def test_screened_shortlist_is_the_float64_argsort():
    rng = np.random.default_rng(27)
    n = 512
    mem = ScreenCounting(n)
    mem.extend(unit_rows(rng, 70, n))
    margin = mem._margin
    calls = 0

    def check(p, k=3):
        nonlocal calls
        calls += 1
        want = np.argsort(mem.traces @ p)[::-1][:k]
        assert mem.shortlist(p, k).tolist() == want.tolist()

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

    for _ in range(300):
        p = unit_rows(rng, 1, n)[0]
        gaps = tuple(rng.choice([-2.0, -0.5, -1e-5, 1e-5, 0.5, 2.0, 50.0], size=3))
        rows = planted(p, gaps)
        for i, r in zip(rng.choice(len(mem), size=len(rows), replace=False), rows):
            mem.set_row(i, r)
        for k in (1, 3, 4):
            check(p, k)
        check(p + rng.normal(0.0, 0.02, n))
    # Exact ties: a duplicate of the top row, and distinct rows that tie.
    p = unit_rows(rng, 1, n)[0]
    top = planted(p, (100.0,))
    mem.set_row(0, top[0])
    mem.set_row(1, top[1])
    mem.append(top[0], dedup=False)
    check(p)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0) / 16.0
    flipped = signs.copy()
    flipped[0] = -flipped[0]
    mem.append(flipped, dedup=False)
    mem.append(signs, dedup=False)
    tie_probe = signs.copy()
    tie_probe[0] = 0.0
    check(tie_probe)
    for k in (0, len(mem) - 1, len(mem), len(mem) + 5):
        check(p, k)
    for kind in range(6):
        check(out_of_range(p, kind))
    # One out-of-range row turns the screen off; a row of NaNs makes NaN
    # activations, which the float64 sort places as it always has.
    for bad in (1e20 * p, np.full(n, np.inf), np.full(n, np.nan)):
        mem.set_row(5, bad)
        check(p)
        check(p + rng.normal(0.0, 0.02, n))
    # Stores of at most k rows.
    for m in (1, 2, 3):
        small = CleanupMemory(n)
        small.extend(unit_rows(rng, m, n))
        q = rng.normal(0.0, 1.0, n)
        assert small.shortlist(q, 3).tolist() == np.argsort(small.traces @ q)[::-1][:3].tolist()
    with pytest.raises(EmptyMemoryError):
        CleanupMemory(n).shortlist(p, 3)
    # Both the screen's own answers and the float64 fall-through ran.
    assert 0 < mem.full_activations < calls


def test_ranking_screens_only_from_the_row_floor():
    rng = np.random.default_rng(28)
    n = 512
    floor = cleanup._RANK_SCREEN_MIN_ROWS
    mem = ScreenCounting(n)
    rows = unit_rows(rng, floor + 1, n)
    mem.extend(rows[: floor - 1])
    p = rows[5] + rng.normal(0.0, 0.02, n)
    assert np.array_equal(mem.recall_lookup(p), rows[5])
    assert mem.shortlist(p, 3)[0] == 5
    assert mem.full_activations == 2  # both ranked in float64
    mem.append(rows[floor - 1])
    assert mem.dedup_checks == 1 and mem.dedup_scans == 0  # dedup screens below the floor
    assert len(mem) == floor
    assert np.array_equal(mem.recall_lookup(p), rows[5])
    assert mem.shortlist(p, 3)[0] == 5
    assert mem.full_activations == 2  # both ranked by the screen


def test_mirror_follows_updates_and_snapshots():
    rng = np.random.default_rng(25)
    n = 512
    m = 70  # past the row floor of ranking through the screen
    mem = filled(rng, m=m, n=n, eta=1.0)

    def agrees(target, memory):
        p = target + rng.normal(0.0, 0.02, n)
        want = memory.traces[np.argmax(memory.traces @ p)]
        assert memory.recall_lookup(p).tobytes() == want.tobytes()

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
    fresh = unit_rows(rng, 1, n)[0]
    mem.set_row(9, fresh)
    agrees(fresh, mem)
    back = CleanupMemory.from_bytes(mem.to_bytes())
    for i in range(m):
        agrees(mem.traces[i], back)
    back.extend(unit_rows(rng, 80, n))  # past the snapshot's capacity
    for i in range(m + 80):
        agrees(back.traces[i], back)


def test_set_row_overwrites_in_place():
    rng = np.random.default_rng(3)
    mem = filled(rng, m=4, n=32)
    new = unit_rows(rng, 1, 32)[0]
    mem.set_row(2, new)
    assert np.array_equal(mem.traces[2], new)
    with pytest.raises(IndexError):
        mem.set_row(4, new)


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
                 alpha=0.5, eta=0.01, max_iters=33, tol=1e-8, dedup_threshold=0.95)
    back = CleanupMemory.from_bytes(mem.to_bytes())
    assert back.kind == "minerva2"
    assert (back.beta, back.gamma, back.alpha, back.eta) == (7.5, 2.0, 0.5, 0.01)
    assert back.dedup_threshold == 0.95
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
    with pytest.raises(ValueError):
        CleanupMemory.from_bytes(blob[:4] + bytes([len(KINDS)]) + blob[5:])


def test_save_and_load_files(tmp_path):
    rng = np.random.default_rng(21)
    mem = filled(rng, m=5, n=24)
    path = tmp_path / "mem.bin"
    mem.save(str(path))
    back = CleanupMemory.load(str(path))
    assert np.array_equal(back.traces, mem.traces)
