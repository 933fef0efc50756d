"""Algebra tests: FFT binding against a hand-rolled convolution, exact
identities, registry determinism, and the lazy add's forcing contract."""
import numpy as np
import pytest

from veclisp import hrr
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
        reg.vector(nm)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.choice(names, size=2, replace=False)
        noisy = hrr.unbind(reg.vector(x), hrr.bind(reg.vector(x), reg.vector(y)))
        assert reg.nearest(noisy)[0] == y


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


def test_saturating_add_never_forces_an_excluded_branch():
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    big = np.zeros(8)
    big[0] = 1.0
    out = hrr.saturating_add(_counted(big, calls, "a"), _counted(np.ones(8), calls, "b"), t)
    assert np.array_equal(out, big)
    assert calls == {"a": 1, "b": 0}


def test_saturating_add_drops_a_negligible_first_operand():
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    b = np.full(8, 0.5)
    out = hrr.saturating_add(_counted(np.zeros(8), calls, "a"), _counted(b, calls, "b"), t)
    assert np.array_equal(out, b)
    assert calls == {"a": 1, "b": 1}


def test_saturating_add_blends_the_middle_band():
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    a = np.zeros(4)
    a[0] = 0.5
    b = np.zeros(4)
    b[1] = 2.0
    out = hrr.saturating_add(_counted(a, calls, "a"), _counted(b, calls, "b"), t)
    assert calls == {"a": 1, "b": 1}
    assert np.allclose(out, hrr.normalize(a + b))


def test_saturating_add_exact_boundaries_blend():
    # Saturation is strict: a norm exactly at theta_up still forces b.
    t = Thresholds(0.8, 0.2)
    calls = {"a": 0, "b": 0}
    a = np.zeros(4)
    a[0] = 0.8
    hrr.saturating_add(_counted(a, calls, "a"), _counted(np.ones(4), calls, "b"), t)
    assert calls["b"] == 1


# -- atom registry ----------------------------------------------------------------


def test_registry_is_deterministic_and_order_independent():
    r1 = AtomRegistry(256, seed=5)
    r2 = AtomRegistry(256, seed=5)
    a1 = r1.vector("A")
    r2.vector("B")
    a2 = r2.vector("A")
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, AtomRegistry(256, seed=6).vector("A"))


def test_registry_vectors_are_cached_and_frozen():
    reg = AtomRegistry(64, seed=0)
    v = reg.vector("X")
    assert reg.vector("X") is v
    assert not v.flags.writeable
    assert "X" in reg and len(reg) == 1 and reg.names() == ["X"]


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
        reg.vector(f"A{i}")
    rng = np.random.default_rng(14)
    noisy = reg.vector("A3") + rng.normal(0.0, 0.01, 512)
    name, sim = reg.nearest(noisy)
    assert name == "A3" and sim > 0.9


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
    assert np.array_equal(hrr.permute(hrr.permute(v, perm), perm, inverse=True), v)
    assert not np.array_equal(perm.forward(v), v)


def test_permutation_is_seed_deterministic():
    v = np.arange(64.0)
    assert np.array_equal(Permutation(64, seed=2).forward(v), Permutation(64, seed=2).forward(v))
    assert not np.array_equal(Permutation(64, seed=2).forward(v), Permutation(64, seed=3).forward(v))


def test_permutation_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Permutation(64, seed=0).forward(np.zeros(65))
