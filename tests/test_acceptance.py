"""Acceptance suite: one test and one visible verdict line per criterion.

Each test prints ``ACCEPTANCE <n> PASS/FAIL <name>: <detail>`` around the
capture machinery so the verdicts show up in a plain pytest run, then asserts.
The slow-route convolution oracle is deliberately reimplemented here in pure
Python; it must never be replaced by a call into the package.
"""

import random
import subprocess
import sys
import time

import numpy as np

from veclisp import bench, codec, corpus, hrr, oracle, reader
from veclisp.cleanup import CleanupMemory
from veclisp.cli import _same_result
from veclisp.evaluator import EvalSession, SessionConfig
from veclisp.hrr import AtomRegistry, Thresholds
from veclisp.reader import Atom, Pair

SEED = 20240814


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def naive_convolve(u, v):
    # Quadratic reference route, kept independent of the FFT implementation.
    n = len(u)
    return np.array([sum(u[i] * v[(k - i) % n] for i in range(n)) for k in range(n)])


def test_binding_matches_the_quadratic_route_and_recovers_operands(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)

    worst = 0.0
    for n in (3, 16, 65, 257, 1024):
        u = rng.normal(0.0, 1.0 / np.sqrt(n), n)
        v = rng.normal(0.0, 1.0 / np.sqrt(n), n)
        worst = max(worst, float(np.max(np.abs(hrr.bind(u, v) - naive_convolve(u, v)))))

    commutative = all(
        hrr.bind(u, v).tobytes() == hrr.bind(v, u).tobytes()
        for u, v in (
            (rng.normal(0.0, 1.0 / np.sqrt(2048), 2048), rng.normal(0.0, 1.0 / np.sqrt(2048), 2048))
            for _ in range(50)
        )
    )

    registry = AtomRegistry(2048, SEED)
    names = [f"A{i}" for i in range(64)]
    atoms = [registry.vector(nm) for nm in names]
    hits = 0
    for _ in range(1000):
        i, j = rng.integers(0, 64, 2)
        recovered = hrr.unbind(atoms[i], hrr.bind(atoms[i], atoms[j]))
        hits += registry.nearest(recovered)[0] == names[j]

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and commutative and hits >= 999 and elapsed < 30.0
    report(
        capsys,
        1,
        "binding algebra",
        ok,
        f"fft-vs-naive {worst:.2e}, commutative={commutative}, nearest {hits}/1000, {elapsed:.1f}s",
    )


def test_random_atoms_stay_inside_the_similarity_margin(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    rows = rng.normal(0.0, 1.0 / np.sqrt(512), (20000, 512))
    a, b = rows[:10000], rows[10000:]
    sims = np.einsum("ij,ij->i", a, b) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    inside = int(np.count_nonzero((sims > -0.2) & (sims < 0.2)))
    elapsed = time.perf_counter() - start
    ok = inside >= 9990 and elapsed < 10.0
    report(capsys, 2, "atom margin", ok, f"{inside}/10000 inside (-0.2, 0.2), {elapsed:.1f}s")


def random_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    return Pair(random_tree(rng, names, depth - 1), random_tree(rng, names, depth - 1))


def test_encoded_trees_decode_back_exactly(capsys):
    start = time.perf_counter()
    rng = random.Random(SEED)
    names = ["A", "B", "C", "D", "E", "F", "G", "H", "J", "K"]
    registry = AtomRegistry(2048, SEED)
    t = Thresholds(0.8, 0.2)
    exact = 0
    for _ in range(500):
        tree = random_tree(rng, names, 5)
        mem = CleanupMemory(2048, "lookup")
        exact += codec.decode(codec.encode(tree, registry, mem), mem, registry, t) == tree
    elapsed = time.perf_counter() - start
    ok = exact >= 495 and elapsed < 60.0
    report(capsys, 3, "tree round-trip", ok, f"{exact}/500 exact, {elapsed:.1f}s")


def twins_agree(sess, env, expr):
    """Both sides on one expression: whether the oracle rejected it, and whether the twins agreed."""
    sess.branch_log = []
    env.branch_log = []
    verr = oerr = None
    vout = oout = None
    try:
        vout = sess.run(expr)
    except Exception as exc:
        verr = exc
    env.steps = 0
    try:
        oout = oracle.evaluate(expr, env)
    except Exception as exc:
        oerr = exc
    if verr is not None or oerr is not None:
        return oerr is not None, verr is not None and oerr is not None
    return False, _same_result(vout, oout) and sess.branch_log == env.branch_log


def corpus_agreement(config):
    """Corpus programs whose every line agrees, values and branch logs, and the first that does not."""
    agreed = 0
    first_bad = ""
    for name, texts in corpus.PROGRAMS:
        sess = EvalSession(config)
        env = oracle.OracleEnv()
        good = all(twins_agree(sess, env, reader.parse(text))[1] for text in texts)
        if not good:
            first_bad = first_bad or f" first={name!r}"
        agreed += good
    return agreed, first_bad


def test_vector_and_symbolic_twins_agree_on_the_whole_corpus(capsys):
    start = time.perf_counter()
    names = [nm for nm, _ in corpus.PROGRAMS]
    assert len(names) >= 30
    assert any("capture" in nm for nm in names) and any("undefined" in nm for nm in names)

    agreed, first_bad = corpus_agreement(SessionConfig(dim=4096, seed=42))
    elapsed = time.perf_counter() - start
    ok = agreed == len(corpus.PROGRAMS) and elapsed < 120.0
    report(
        capsys,
        4,
        "twin agreement",
        ok,
        f"{agreed}/{len(corpus.PROGRAMS)} programs, values and branch logs{first_bad}, {elapsed:.1f}s",
    )


def test_saturated_guards_never_force_the_alternative(capsys, monkeypatch):
    real = hrr.cascade
    stats = {"saturated": 0, "violations": 0}

    def probed(alternatives, default, t):
        # Once an alternative saturates, the cascade may force nothing more:
        # no later guard, payload or default, and no pull of another pair.
        done = []

        def forced(thunk):
            stats["violations"] += bool(done)
            return thunk()

        def pairs():
            for gate, payload in alternatives:
                g = []

                def gate_probe(gate=gate, g=g):
                    g.append(forced(gate))
                    return g[-1]

                def payload_probe(payload=payload, g=g):
                    value = forced(payload)
                    if float(np.linalg.norm(g[-1] * value)) > t.theta_up:
                        stats["saturated"] += 1
                        done.append(True)
                    return value

                yield gate_probe, payload_probe
                stats["violations"] += bool(done)

        return real(pairs(), lambda: forced(default), t)

    monkeypatch.setattr(hrr, "cascade", probed)
    picked = [
        (nm, texts)
        for nm, texts in corpus.PROGRAMS
        if any("COND" in t or "LAMBDA" in t for t in texts)
    ]
    for _, texts in picked:
        sess = EvalSession(SessionConfig(dim=2048, seed=42))
        for text in texts:
            sess.run_text(text)

    ok = stats["saturated"] > 100 and stats["violations"] == 0
    report(
        capsys,
        5,
        "lazy branching",
        ok,
        f"{stats['saturated']} saturated guards over {len(picked)} programs, "
        f"{stats['violations']} forced alternatives",
    )


def test_memory_recall_and_update_rule_equivalences(capsys):
    rng = np.random.default_rng(SEED)
    rows = rng.normal(0.0, 1.0, (100, 512))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)

    lookup = CleanupMemory(512, "lookup")
    lookup.extend(rows)
    sharp = CleanupMemory(512, "mhn", beta=1000.0)
    sharp.extend(rows)
    recall_gap = max(
        float(np.max(np.abs(sharp.recall(rows[i]) - lookup.recall(rows[i])))) for i in range(20)
    )

    flat = CleanupMemory(512, "mhn", beta=0.0)
    flat.extend(rows)
    mean_exact = np.array_equal(flat.recall(rows[0]), rows.mean(axis=0))

    base = rng.normal(0.0, 1.0, (64, 64))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    grad = rng.normal(0.0, 0.1, (64, 64))
    probe = base[0].copy()

    def stepped(kind_kwargs, rule):
        mem = CleanupMemory(64, "lookup", eta=0.1, **kind_kwargs)
        mem.extend(base.copy())
        states = []
        for _ in range(5):
            mem.apply_update(probe, grad, rule)
            states.append(mem.traces.copy())
        return states

    rc = stepped({}, "RC")
    re_flat = stepped({"gamma": 0.0, "alpha": 64.0}, "RE")
    gap_rc = max(float(np.max(np.abs(a - b))) for a, b in zip(rc, re_flat))

    rg = stepped({}, "RG")
    re_sharp = stepped({"gamma": 1000.0, "alpha": 1.0}, "RE")
    gap_rg = max(float(np.max(np.abs(a - b))) for a, b in zip(rg, re_sharp))

    ok = recall_gap < 1e-6 and mean_exact and gap_rc < 1e-6 and gap_rg < 1e-6
    report(
        capsys,
        6,
        "memory equivalences",
        ok,
        f"softmax-vs-lookup {recall_gap:.1e}, zero-sharpness mean exact={mean_exact}, "
        f"flat-RE-vs-RC {gap_rc:.1e}/step, sharp-RE-vs-RG {gap_rg:.1e}/step",
    )


def test_integer_and_real_exponents_recall_alike(capsys):
    rng = np.random.default_rng(SEED)
    rows = rng.normal(0.0, 1.0, (40, 256))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    worst = 0.0
    for power in (1, 3, 5):
        as_int = CleanupMemory(256, "minerva2", rho=power)
        as_int.extend(rows)
        as_real = CleanupMemory(256, "minerva2", rho=float(power))
        as_real.extend(rows)
        for i in range(10):
            probe = rows[i] + rng.normal(0.0, 0.05, 256)
            worst = max(worst, float(np.max(np.abs(as_int.recall(probe) - as_real.recall(probe)))))
    ok = worst <= 1e-9
    report(capsys, 7, "exponent parity", ok, f"int-vs-real gap {worst:.1e} over rho 1,3,5")


def test_permuted_list_stores_retrieve_themselves(capsys):
    report_text = bench.run_kanerva(SessionConfig(dim=1024, seed=1729))
    last = report_text.splitlines()[-1]
    rate = float(last.split("=")[1])
    ok = last.startswith("# self_retrieval_rate=") and rate >= 0.99
    report(capsys, 8, "self retrieval", ok, f"rate {rate:.6f} over {bench.KANERVA_LISTS} sublists")


def test_same_seed_runs_are_byte_identical(capsys):
    script = (
        "(DEFINE WRAP (LAMBDA (P) (CONS P ())))\n"
        "((WRAP (QUOTE A)))\n"
        "(COND ((EQ (QUOTE A) (QUOTE B)) . (QUOTE X)))\n"
    )

    def run_once(argv, feed=None):
        proc = subprocess.run(
            [sys.executable, "-m", "veclisp", *argv],
            input=feed,
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout

    repl = [run_once(["repl", "--dim", "512", "--seed", "1729", "--oracle-check"], script) for _ in range(2)]
    benches = [
        [run_once(["bench", kind, "--dim", "256", "--seed", "1729"]) for _ in range(2)]
        for kind in ("kanerva", "update_rules")
    ]
    repl_same = repl[0] == repl[1] and repl[0][1] != ""
    bench_same = all(first == second and first[1] != "" for first, second in benches)
    ok = repl_same and bench_same
    report(
        capsys,
        9,
        "determinism",
        ok,
        f"repl transcript identical={repl_same}, 2 bench reports identical={bench_same}",
    )


GEN_ATOMS = ("A", "B", "C", "NIL")
GEN_FORMS = ("atom", "QUOTE", "CONS", "CAR", "CDR", "ATOM", "EQ", "COND", "LAMBDA")


def gen_datum(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(GEN_ATOMS)
    return f"({gen_datum(rng, depth - 1)} . {gen_datum(rng, depth - 1)})"


def gen_expr(rng, depth, param=None):
    """A random expression over the elementary forms and one-parameter lambdas."""
    leaves = GEN_ATOMS + ((param,) if param else ())
    form = rng.choice(GEN_FORMS) if depth > 0 else "atom"

    def sub():
        return gen_expr(rng, depth - 1, param)

    if form == "atom":
        return rng.choice(leaves)
    if form == "QUOTE":
        return f"(QUOTE ({gen_datum(rng, depth - 1)} . {gen_datum(rng, depth - 1)}))"
    if form in ("CAR", "CDR", "ATOM"):
        return f"({form} {sub()})"
    if form in ("CONS", "EQ"):
        return f"({form} {sub()} {sub()})"
    if form == "COND":
        clauses = [f"({sub()} . {sub()})" for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            clauses.append(f"(T . {sub()})")
        return f"(COND {' '.join(clauses)})"
    # Apply, then run the nullary lambda the application leaves.
    p = rng.choice(GEN_ATOMS[:3])
    return f"(((LAMBDA ({p}) {gen_expr(rng, depth - 1, p)}) {sub()}))"


def test_generated_programs_agree_with_the_oracle(capsys):
    rng = random.Random(1729)
    programs = [gen_expr(rng, 4) for _ in range(300)]
    evaluated = rejected = agreed = raised = 0
    first_value = first_error = ""
    for text in programs:
        sess = EvalSession(SessionConfig(dim=2048, seed=1729))
        rejected_here, ok = twins_agree(sess, oracle.OracleEnv(), reader.parse(text))
        if not rejected_here:
            evaluated += 1
            agreed += ok
            first_value = first_value or ("" if ok else f" first={text!r}")
        else:
            rejected += 1
            raised += ok
            first_error = first_error or ("" if ok else f" first={text!r}")
    ok = agreed == evaluated and raised == rejected and evaluated > 0 and rejected > 0
    report(
        capsys,
        10,
        "generated programs",
        ok,
        f"{len(programs)} at depth 4: evaluated agreement {agreed}/{evaluated}{first_value}, "
        f"error agreement {raised}/{rejected}{first_error}",
    )


def test_projection_by_key_scan_alone_carries_the_corpus(capsys, monkeypatch):
    # Every projection ranks the probe against all keys: no identity or
    # exact-bytes answer, and with sigma > 0 the probe first gets sigma * |v|
    # of Gaussian noise in a random direction.
    def scan_only(sigma, rng):
        def row(table, v, floor):
            if not table.keys:
                return None
            if sigma:
                d = rng.normal(0.0, 1.0, v.shape)
                v = v + sigma * np.linalg.norm(v) * d / np.linalg.norm(d)
            i = table.nearest(v)
            return i if hrr.similarity(v, table.keys[i]) >= floor else None

        return row

    def score(dim, seed, sigma):
        monkeypatch.setattr(codec.PairTable, "row", scan_only(sigma, np.random.default_rng(seed)))
        agreed, first_bad = corpus_agreement(SessionConfig(dim=dim, seed=seed))
        return agreed, f"{agreed}/{len(corpus.PROGRAMS)} at {dim}/{seed} sigma={sigma}{first_bad}"

    gated = [score(*setting) for setting in ((4096, 42, 0.0), (2048, 1729, 0.0), (512, 1729, 0.0), (2048, 1729, 0.6))]
    # Not gated: keys that differ only deep inside reach a cosine of 0.998,
    # and sigma = 1.0 noise swaps such twins often enough that 58/58 at dim
    # 2048 depends on the noise draw.
    shown = [score(*setting)[1] for setting in ((2048, 1729, 1.0), (512, 1729, 0.6), (512, 1729, 1.0))]
    ok = all(agreed == len(corpus.PROGRAMS) for agreed, _ in gated)
    report(
        capsys,
        11,
        "projection by key scan",
        ok,
        f"{', '.join(detail for _, detail in gated)}; not gated: {', '.join(shown)}",
    )
