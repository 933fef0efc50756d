"""Algebra tests: FFT binding against a hand-rolled convolution, exact
identities, registry determinism, and the lazy cascade's forcing contract."""
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from veclisp import codec, hrr
from veclisp.cleanup import CleanupMemory
from veclisp.hrr import (
    AtomRegistry,
    DegenerateVector,
    DimensionMismatch,
    Permutation,
    Thresholds,
)


def naive_convolve(u, v):
    """Quadratic circular convolution, summed index by index on purpose."""
    n = len(u)
    return np.array(
        [sum(u[i] * v[(k - i) % n] for i in range(n)) for k in range(n)]
    )


# -- binding -----------------------------------------------------------------


def test_bind_matches_hand_computed_values():
    u = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([5.0, 6.0, 7.0, 8.0])
    assert np.allclose(hrr.bind(u, v), [66.0, 68.0, 66.0, 60.0], atol=1e-9)


@pytest.mark.parametrize("n", [3, 16, 65, 257])
def test_bind_matches_naive_convolution(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        u = rng.normal(0.0, 1.0, n)
        v = rng.normal(0.0, 1.0, n)
        assert np.abs(hrr.bind(u, v) - naive_convolve(u, v)).max() < 1e-9


def test_bind_is_commutative_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.normal(0.0, 1.0, 128)
        v = rng.normal(0.0, 1.0, 128)
        assert np.array_equal(hrr.bind(u, v), hrr.bind(v, u))


def test_bind_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hrr.bind(np.zeros(4), np.zeros(5))
    with pytest.raises(DimensionMismatch):
        hrr.bind(np.zeros((2, 4)), np.zeros((2, 4)))  # one vector per operand


# -- orthonormal Fourier coordinates --------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 8, 65, 257, 2048])
def test_coordinates_are_an_orthogonal_map_that_turns_bind_elementwise(n):
    rng = np.random.default_rng(300 + n)
    u, v = rng.normal(0.0, 1.0 / np.sqrt(n), (2, 5, n))
    x, y = hrr.to_coords(u), hrr.to_coords(v)
    assert x.shape == y.shape == (5, n)
    for i in range(5):
        assert np.array_equal(hrr.to_coords(u[i]), x[i])  # a stack maps row by row
        assert np.abs(hrr.from_coords(x[i]) - u[i]).max() < 1e-12
        assert abs(x[i] @ y[i] - u[i] @ v[i]) < 1e-12
        assert abs(np.linalg.norm(x[i]) - np.linalg.norm(u[i])) < 1e-12
        assert abs(hrr.similarity(x[i], y[i]) - hrr.similarity(u[i], v[i])) < 1e-12
        assert np.abs(hrr.bind_coords(x[i], y[i]) - hrr.to_coords(hrr.bind(u[i], v[i]))).max() < 1e-12
    assert np.abs(hrr.from_coords(x) - u).max() < 1e-12
    # One operand broadcasts against a stack, and a strided operand reads as its copy.
    assert np.abs(hrr.bind_coords(x[0], y) - hrr.to_coords(np.stack([hrr.bind(u[0], w) for w in v]))).max() < 1e-12
    spread = np.zeros((5, 2 * n))
    spread[:, ::2] = x
    assert np.array_equal(hrr.bind_coords(spread[:, ::2], y), hrr.bind_coords(x, y))
    assert np.array_equal(hrr.from_coords(spread[:, ::2]), hrr.from_coords(x))
    with pytest.raises(DimensionMismatch):
        hrr.bind_coords(x, np.zeros(n + 1))
    # A tag set's unbind, by the role's conjugate, is the coordinates of the
    # unbind by the role's involution, for one vector and for a stack.
    roles = rng.normal(0.0, 1.0 / np.sqrt(n), (len(dataclasses.fields(codec.TagSet)), n))
    tags = codec.TagSet(*hrr.to_coords(roles))
    for role, tag in ((roles[0], tags.left), (roles[1], tags.right)):
        assert np.abs(tags.unbind(tag, y[0]) - hrr.to_coords(hrr.unbind(role, v[0]))).max() < 1e-12
        unbound = tags.unbind(tag, y[:4])
        assert unbound.shape == (4, n)
        for i in range(4):
            assert np.abs(unbound[i] - hrr.to_coords(hrr.unbind(role, v[i]))).max() < 1e-12
    # A pair, built in one buffer, is bitwise the pair built from two binds.
    for i, (a, b) in enumerate(zip(x, y)):
        want = hrr.normalize(hrr.bind_coords(tags.left, a) + hrr.bind_coords(tags.right, b) + tags.phi)
        assert codec.cons_vec(a, b, tags).tobytes() == want.tobytes()
        assert codec.cons_vec(spread[i, ::2], b, tags).tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatch):
        codec.cons_vec(x[0], np.zeros(n + 1), tags)


def test_coordinate_layout_is_dc_nyquist_then_interleaved_bins():
    u = np.arange(1.0, 9.0)
    f = np.fft.rfft(u)
    want = [f[0].real / np.sqrt(8), f[4].real / np.sqrt(8)]
    for k in (1, 2, 3):
        want += [f[k].real * np.sqrt(2 / 8), f[k].imag * np.sqrt(2 / 8)]
    assert np.abs(hrr.to_coords(u) - want).max() < 1e-12
    # An odd length has no Nyquist entry.
    f = np.fft.rfft(u[:5])
    want = [f[0].real / np.sqrt(5)] + [c * np.sqrt(2 / 5) for k in (1, 2) for c in (f[k].real, f[k].imag)]
    assert np.abs(hrr.to_coords(u[:5]) - want).max() < 1e-12


def test_involution_reverses_indices_modularly():
    out = hrr.involution(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out, [1.0, 4.0, 3.0, 2.0])


def test_involution_is_an_involution():
    rng = np.random.default_rng(8)
    u = rng.normal(0.0, 1.0, 33)
    assert np.array_equal(hrr.involution(hrr.involution(u)), u)


def test_unbind_recovers_bound_operand():
    # Recovery through the approximate inverse hovers near 1/sqrt(2); any
    # single pair lands well above the ~1/sqrt(n) noise floor.
    reg = AtomRegistry(2048, seed=3)
    sims = []
    for i in range(20):
        a = reg.vector(f"A{i}")
        b = reg.vector(f"B{i}")
        w = hrr.bind(a, b)
        sims.append(hrr.similarity(hrr.unbind(a, w), b))
        sims.append(hrr.similarity(hrr.unbind(b, w), a))
    assert min(sims) > 0.5
    assert sum(sims) / len(sims) > 0.65


def test_unbind_nearest_neighbor_smoke():
    reg = AtomRegistry(2048, seed=4)
    names = [f"N{i}" for i in range(32)]
    for nm in names:
        reg.coords(nm)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.choice(names, size=2, replace=False)
        noisy = hrr.unbind(reg.vector(x), hrr.bind(reg.vector(x), reg.vector(y)))
        assert reg.nearest(hrr.to_coords(noisy))[0] == y


# -- similarity and friends ----------------------------------------------------


def test_similarity_basics():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert hrr.similarity(e0, e1) == 0.0
    assert hrr.similarity(e0, -e0) == -1.0
    assert hrr.similarity(e0, np.zeros(2)) == 0.0


def test_similarity_identical_vectors_is_exactly_one():
    rng = np.random.default_rng(9)
    u = rng.normal(0.0, 1.0, 501)
    assert hrr.similarity(u, u) == 1.0
    assert hrr.similarity(u, u.copy()) == 1.0


def test_similarity_is_clipped():
    # Near-parallel vectors can push the quotient past 1 by rounding.
    u = np.full(64, 0.1)
    v = np.full(64, 0.3)
    assert hrr.similarity(u, v) <= 1.0


def test_similarity_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hrr.similarity(np.zeros(4), np.zeros(5))


def norm_and_clip_similarity(u, v):
    """The scalar similarity body as np.linalg.norm and np.clip wrote it."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if u is v or np.array_equal(u, v):
        return 1.0
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


@pytest.mark.parametrize("n", [1, 2, 7, 2048])
def test_scalar_similarity_is_bitwise_the_norm_and_clip_form(n):
    rng = np.random.default_rng(n)
    bases = [rng.normal(0.0, 1.0, n) for _ in range(20)] + [np.full(n, 0.1), np.arange(1.0, n + 1.0)]
    pairs = []
    for u in bases:
        v = rng.normal(0.0, 1.0, n)
        for w in (u, u.copy(), -u, 3.0 * u, 0.3 * u, v, np.zeros(n)):
            pairs.append((u, w))
        nudged = u.copy()
        nudged[-1] = np.nextafter(nudged[-1], np.inf)
        pairs.append((u, nudged))
        # Tiny and huge norms: squared norms that underflow, lose precision
        # or overflow, alone or with the other operand in range.
        for scale in (1e-320, 1e-200, 1e-160, 1e-150, 1e-140, 1e140, 1e150, 1e155, 1e160, 1e200):
            pairs += [(scale * u, scale * u), (scale * u, (scale * u).copy()), (scale * u, 2.0 * scale * u),
                      (scale * u, scale * v), (scale * u, u)]
        for bad in (np.inf, -np.inf, np.nan):
            w = u.copy()
            w[0] = bad
            pairs += [(w, w), (w, w.copy()), (w, u), (w, 2.0 * w)]
    with np.errstate(all="ignore"):
        for u, w in pairs:
            for a, b in ((u, w), (w, u)):
                want = norm_and_clip_similarity(a, b)
                got = hrr.similarity(a, b)
                assert type(got) is type(want) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a[:2], b[:2])


def test_stacked_similarity_is_bitwise_the_float_of_each_pair():
    rng = np.random.default_rng(12)
    n = 300
    v = rng.normal(0.0, 1.0, n)
    rows = list(rng.normal(0.0, 1.0, (5, n)))
    rows += [np.zeros(n), v.copy(), -v, 3.0 * v, np.full(n, np.nan), np.full(n, np.inf)]
    stack = np.stack(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        want = [hrr.similarity(r, v) for r in rows]
        got = hrr.similarity(stack, v)
        assert np.array_equal(hrr.similarity(v, stack), got, equal_nan=True)
    assert got.shape == (len(rows),)
    assert np.array(want).tobytes() == got.tobytes()
    assert got[5] == 0.0 and got[6] == 1.0 and got[7] == -1.0 and got[8] <= 1.0
    # A vector whose quotient with itself rounds under 1 still scores exactly 1.
    w = np.random.default_rng(8).normal(0.0, 1.0, n)
    assert w @ w / (np.linalg.norm(w) * np.linalg.norm(w)) < 1.0
    assert hrr.similarity(np.stack([w, -w]), w.copy()).tolist() == [1.0, hrr.similarity(-w, w)]
    # Stacks of stacks broadcast pair by pair, and a zero operand scores 0.
    grid = rng.normal(0.0, 1.0, (3, 4, n))
    probes = rng.normal(0.0, 1.0, (3, 1, n))
    sims = hrr.similarity(grid, probes)
    assert sims.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert sims[i, j] == hrr.similarity(grid[i, j], probes[i, 0])
    assert (hrr.similarity(grid, np.zeros(n)) == 0.0).all()
    with pytest.raises(DimensionMismatch):
        hrr.similarity(grid, np.zeros(n + 1))


def test_normalize_unit_norm_and_zero_error():
    rng = np.random.default_rng(10)
    u = rng.normal(0.0, 1.0, 100)
    assert abs(np.linalg.norm(hrr.normalize(u)) - 1.0) < 1e-12
    with pytest.raises(DegenerateVector):
        hrr.normalize(np.zeros(5))


# -- thresholds and the lazy add -------------------------------------------------


def test_thresholds_validation():
    Thresholds(0.8, 0.2)
    with pytest.raises(ValueError):
        Thresholds(1.5, 0.2)
    with pytest.raises(ValueError):
        Thresholds(0.8, -0.1)
    with pytest.raises(ValueError):
        Thresholds(0.3, 0.5)


def _counted(vec, calls, key):
    def thunk():
        calls[key] += 1
        return vec
    return thunk


def _unit_gate():
    return 1.0


def test_cascade_never_forces_an_excluded_branch():
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    big = np.zeros(8)
    big[0] = 1.0
    out = hrr.cascade([(_unit_gate, _counted(big, calls, "a"))], _counted(np.ones(8), calls, "b"), t)
    assert out is big
    assert calls == {"a": 1, "b": 0}


def test_cascade_drops_a_negligible_alternative():
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    b = np.full(8, 0.5)
    out = hrr.cascade([(_unit_gate, _counted(np.zeros(8), calls, "a"))], _counted(b, calls, "b"), t)
    assert np.array_equal(out, b)
    assert calls == {"a": 1, "b": 1}


def test_cascade_blends_the_middle_band():
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    a = np.zeros(4)
    a[0] = 0.5
    b = np.zeros(4)
    b[1] = 2.0
    out = hrr.cascade([(_unit_gate, _counted(a, calls, "a"))], _counted(b, calls, "b"), t)
    assert calls == {"a": 1, "b": 1}
    assert np.allclose(out, hrr.normalize(a + b))


def test_cascade_exact_boundaries_blend():
    # Saturation is strict: a norm exactly at theta_up still forces the default.
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    a = np.zeros(4)
    a[0] = 0.8
    hrr.cascade([(_unit_gate, _counted(a, calls, "a"))], _counted(np.ones(4), calls, "b"), t)
    assert calls["b"] == 1


# The two-operand lazy add and gate that the cascade replaced, kept verbatim
# as the reference: a cascade of n alternatives must be bitwise the n-deep
# tower ``add(lambda: gv(g1, p1), lambda: add(lambda: gv(g2, p2), ...))``.


def _ref_saturating_add(a, b, t):
    av = a()
    na = float(np.linalg.norm(av))
    if na > t.theta_up:
        return av
    if na < t.theta_down:
        return b()
    return hrr.normalize(av + b())


def _ref_gv(gate, payload, t, dim):
    if abs(gate) < t.theta_down:
        return np.zeros(dim)
    value = payload()
    return value if gate == 1.0 else gate * value


def _ref_tower(alternatives, default, t, dim):
    if not alternatives:
        return default()
    (gate, payload), rest = alternatives[0], alternatives[1:]
    return _ref_saturating_add(
        lambda: _ref_gv(gate(), payload, t, dim), lambda: _ref_tower(rest, default, t, dim), t
    )


@pytest.mark.parametrize("up,down", [(0.8, 0.2), (0.5, 0.0)])
def test_cascade_is_bitwise_the_nested_saturating_add(up, down):
    t = Thresholds(up, down)
    dim = 8
    rng = np.random.default_rng(31)
    gates = [0.0, 0.1, down, 0.5, 0.8, 1.0, -1.0, float("nan")]
    norms = [0.0, 0.1, 0.5, up, 1.0, float("nan")]

    def payload_vector():
        norm = norms[rng.integers(len(norms))]
        if rng.random() < 0.5:
            # An axis vector carries its norm exactly, boundaries included.
            v = np.zeros(dim)
            v[rng.integers(dim)] = norm
            assert np.isnan(norm) or np.linalg.norm(v) == norm
            return v
        v = rng.normal(size=dim)
        return v / np.linalg.norm(v) * norm

    def run(combine, case):
        forced = []

        def thunk(label, value):
            def force():
                forced.append(label)
                return value
            return force

        alternatives = [
            (thunk(("gate", i), g), thunk(("payload", i), p)) for i, (g, p) in enumerate(case["alts"])
        ]
        try:
            out = combine(alternatives, thunk(("default",), case["default"]))
        except DegenerateVector:
            return "degenerate", forced
        return out.tobytes(), forced

    outcomes = set()
    for _ in range(600):
        n = int(rng.integers(1, 8))
        case = {
            "alts": [(gates[rng.integers(len(gates))], payload_vector()) for _ in range(n)],
            "default": payload_vector(),
        }
        got = run(lambda alts, d: hrr.cascade(iter(alts), d, t), case)
        want = run(lambda alts, d: _ref_tower(alts, d, t, dim), case)
        assert got == want
        if got[0] == "degenerate":
            outcomes.add("degenerate")
        else:
            outcomes.add("exhausted" if ("default",) in got[1] else "saturated")
    # A kept zero alternative, and so a degenerate blend, needs theta_down = 0.
    assert outcomes == {"saturated", "exhausted"} | ({"degenerate"} if down == 0.0 else set())


# -- atom registry ----------------------------------------------------------------


def test_registry_is_deterministic_and_order_independent():
    r1 = AtomRegistry(256, seed=5)
    r2 = AtomRegistry(256, seed=5)
    a1 = r1.vector("A")
    r2.vector("B")
    a2 = r2.vector("A")
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, AtomRegistry(256, seed=6).vector("A"))


def test_registry_vectors_are_fresh_read_only_draws_that_hold_no_atom():
    reg = AtomRegistry(64, seed=0)
    v = reg.vector("X")
    want = np.random.default_rng(hrr._seed_material(0, 64, "X")).normal(0.0, 1.0 / np.sqrt(64), 64)
    assert v.tobytes() == want.tobytes()
    assert not v.flags.writeable
    again = reg.vector("X")
    assert again is not v and again.tobytes() == v.tobytes()
    assert "X" not in reg and len(reg) == 0
    reg.coords("X")
    assert "X" in reg and len(reg) == 1 and reg.vector("X") is not v


@pytest.mark.parametrize("dim", [1, 64, 2048])
def test_registry_coords_are_the_coordinates_of_the_draw(dim):
    reg = AtomRegistry(dim, seed=21)
    for name in ("A", "NIL", "#L", "#G7"):
        assert reg.coords(name).tobytes() == hrr.to_coords(reg.vector(name)).tobytes()


def test_registry_atoms_have_near_unit_norm():
    reg = AtomRegistry(1024, seed=12)
    for i in range(20):
        assert abs(np.linalg.norm(reg.vector(f"A{i}")) - 1.0) < 0.1


def test_registry_distinct_atoms_are_nearly_orthogonal():
    reg = AtomRegistry(1024, seed=13)
    vs = [reg.vector(f"A{i}") for i in range(16)]
    for i in range(16):
        for j in range(i + 1, 16):
            assert abs(hrr.similarity(vs[i], vs[j])) < 0.2


def test_registry_nearest_cleans_a_noisy_atom():
    reg = AtomRegistry(512, seed=14)
    for i in range(10):
        reg.coords(f"A{i}")
    rng = np.random.default_rng(14)
    noisy = hrr.to_coords(reg.vector("A3") + rng.normal(0.0, 0.01, 512))
    name, sim = reg.nearest(noisy)
    assert name == "A3" and sim > 0.9


def test_registry_nearest_rejects_a_vector_of_zero_norm():
    # A cosine cannot see such a vector, so no atom may be named for it.
    reg = AtomRegistry(256, seed=14)
    reg.coords("A")
    tiny = reg.coords("A") * 1e-200  # its squared norm underflows to zero
    for x in (np.zeros(256), tiny):
        with pytest.raises(DegenerateVector):
            reg.nearest(x)
        with pytest.raises(DegenerateVector):
            codec.decode(x, CleanupMemory(256), reg, Thresholds())


def test_registry_nearest_finds_every_drawn_atom_exactly():
    reg = AtomRegistry(256, seed=16)
    names = [f"A{i}" for i in range(12)]
    for k, name in enumerate(names):
        reg.coords(name)
        for seen in names[: k + 1]:
            assert reg.nearest(reg.coords(seen)) == (seen, 1.0)
            assert reg.nearest(hrr.to_coords(reg.vector(seen))) == (seen, 1.0)
    assert reg._table is None  # no lookup needed the stacked atoms
    nudged = reg.coords("A4").copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    name, sim = reg.nearest(nudged)  # a scan, which stacks them
    assert name == "A4" and reg._table is not None


def test_registry_coords_are_converted_once_read_only_one_object_per_name():
    reg = AtomRegistry(256, seed=17)
    x = reg.coords("A")
    assert reg.coords("A") is x and x.tobytes() == hrr.to_coords(reg.vector("A")).tobytes()
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    # Threads of two registries converting the same names at once still get
    # one object per name: each registry's own, and the store's.
    hrr._atoms.clear()
    regs = [reg, AtomRegistry(256, seed=17)]
    names = [f"B{i}" for i in range(50)]
    calls = [(r, name) for name in names * 4 for r in regs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda call: call[0].coords(call[1]), calls, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (r, name), y in zip(calls, got):
        assert y is r.coords(name) and r.name(y) == name
        assert y is regs[0].coords(name) and y is hrr._atoms[(17, 256, name)]


def test_registries_of_one_seed_and_dim_share_each_atom():
    hrr._atoms.clear()
    draws = []
    first, second = AtomRegistry(128, seed=22), AtomRegistry(128, seed=22)
    vector = first.vector
    first.vector = second.vector = lambda name: draws.append(name) or vector(name)
    names = ["A", "NIL", "#L", "#G3"]
    held = [first.coords(name) for name in names]
    for name, x in zip(names, held):
        assert second.coords(name) is x and hrr._atoms[(22, 128, name)] is x
        assert not x.flags.writeable and x.tobytes() == hrr.to_coords(vector(name)).tobytes()
    assert draws == names and len(hrr._atoms) == len(names)  # drawn once, for the first registry
    # Each registry holds, names and scans only the atoms it was asked for.
    first.coords("B")
    assert len(first) == len(names) + 1 and len(second) == len(names) and "B" not in second
    # Another seed or dim is another atom.
    for other in (AtomRegistry(128, seed=23), AtomRegistry(127, seed=22)):
        x = other.coords("A")
        assert x is not held[0] and not np.array_equal(x[:127], held[0][:127])


def test_the_atom_store_holds_at_most_its_bound():
    from veclisp.evaluator import EvalSession, SessionConfig

    hrr._atoms.clear()
    reg = EvalSession(SessionConfig(dim=64, seed=31)).registry
    fixed = len(reg)  # the reserved and builtin names
    held = {}
    largest = 0
    for i in range(10_000):
        held[f"X{i}"] = reg.coords(f"X{i}")
        largest = max(largest, len(hrr._atoms))
    assert largest == hrr.ATOM_STORE_SIZE == len(hrr._atoms)
    # The registry keeps its own atoms; the store keeps those used last.
    assert len(reg) == fixed + 10_000 and all(reg.coords(name) is x for name, x in held.items())
    assert (31, 64, "X9999") in hrr._atoms and (31, 64, "X0") not in hrr._atoms
    # A name the store let go is drawn again, bitwise the same.
    again = AtomRegistry(64, seed=31).coords("X0")
    assert again is not held["X0"] and again.tobytes() == held["X0"].tobytes()


def test_registry_names_held_coords_by_id_and_others_by_nearest_atom():
    reg = AtomRegistry(256, seed=18)
    names = [f"A{i}" for i in range(10)]
    coords = [reg.coords(name) for name in names]
    for name, x in zip(names, coords):
        assert reg.name(x) == name
    assert reg._table is None  # held coordinates are named without stacking the atoms
    rng = np.random.default_rng(18)
    for name, x in zip(names, coords):
        assert reg.name(x.copy()) == name
        assert reg.name(x + rng.normal(0.0, 0.02, 256)) == name
    assert reg._table is not None


def test_registry_names_copies_of_held_coords_by_bytes(monkeypatch):
    reg = AtomRegistry(256, seed=19)
    names = ["A", "B", "NIL"]
    held = [reg.coords(name) for name in names]
    scans = []
    nearest = reg.nearest
    monkeypatch.setattr(reg, "nearest", lambda v: scans.append(v) or nearest(v))
    for name, x in zip(names, held):
        assert reg.name(x.copy()) == name
        assert reg.name(np.stack([held[0], x])[1]) == name  # a row of a stack
    assert scans == []
    # A copy changed past the hashed prefix is no atom's bytes: it is scanned.
    twin = held[0].copy()
    twin[-1] = np.nextafter(twin[-1], np.inf)
    assert reg.name(twin) == "A" and len(scans) == 1 and scans[0] is twin  # the coordinates themselves


def test_registry_nearest_follows_new_atoms():
    reg = AtomRegistry(256, seed=15)
    rng = np.random.default_rng(15)
    names = [f"A{i}" for i in range(6)]
    for name in names:
        reg.coords(name)
    probe = hrr.to_coords(reg.vector("A2") + rng.normal(0.0, 0.01, 256))
    assert reg.nearest(probe)[0] == "A2"
    # An atom held after a lookup takes part in the next one.
    names.append("LATER")
    later = reg.coords("LATER")
    name, sim = reg.nearest(later)
    assert name == "LATER" and sim == 1.0
    # The stacked atoms grow in place, then past their first buffer, and
    # score bitwise as a fresh stack of every atom does.
    for extra in (0, 3, 30):
        for i in range(extra):
            names.append(f"M{extra}.{i}")
            reg.coords(names[-1])
        matrix = np.stack([reg.coords(k) for k in names])
        with np.errstate(invalid="ignore", divide="ignore"):
            for v in (probe, 0.5 * later):  # no exact atom: each one scans
                norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(v)
                sims = np.where(norms > 0.0, matrix @ v / norms, 0.0)
                best = int(np.argmax(sims))
                assert reg.nearest(v) == (names[best], float(sims[best]))


def test_registry_nearest_on_empty_registry_raises():
    with pytest.raises(KeyError):
        AtomRegistry(64, seed=0).nearest(np.zeros(64))


def test_registry_rejects_nonpositive_dim():
    with pytest.raises(ValueError):
        AtomRegistry(0, seed=0)


# -- permutation ------------------------------------------------------------------


def test_permutation_round_trip_is_exact():
    rng = np.random.default_rng(15)
    perm = Permutation(128, seed=1)
    v = rng.normal(0.0, 1.0, 128)
    assert np.array_equal(perm.inverse(perm.forward(v)), v)
    assert not np.array_equal(perm.forward(v), v)


def test_permutation_is_seed_deterministic():
    v = np.arange(64.0)
    assert np.array_equal(Permutation(64, seed=2).forward(v), Permutation(64, seed=2).forward(v))
    assert not np.array_equal(Permutation(64, seed=2).forward(v), Permutation(64, seed=3).forward(v))


def test_permutation_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Permutation(64, seed=0).forward(np.zeros(65))
