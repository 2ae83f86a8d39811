"""Fast checks of the benchmark's own parts: the oracle, the inputs, the tracer.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

import liftworlds as lw
from liftworlds import io, universe

import inputs
import oracle
import tracing


def tiny_inputs(directory: Path, seed: int, ragged: bool, sizes=(2, 3, 4, 5, 6)) -> inputs.Inputs:
    """A small triple of either shape, expanded the way the workloads expand theirs."""
    rng = np.random.default_rng(seed)
    tables = inputs.draw_tables(rng)
    probs = tuple(float(p) for p in np.full(len(sizes), 1.0 / len(sizes)))
    if ragged:
        second = frozenset(x for x in inputs.persons(max(sizes)) if rng.random() < 0.5)
        program, pairs, treatments = inputs.ragged_program(second), inputs.RAGGED_PAIRS, inputs.RAGGED_TREATMENTS
    else:
        second = frozenset()
        program, pairs, treatments = inputs.epidemic_program(), inputs.PAIRS, inputs.TREATMENTS
    inputs.write_triple(directory, tables, program,
                        inputs.enumerated_domains(sizes, probs, treatments))
    return inputs.Inputs(directory, tables, tuple(sizes), probs, pairs, second)


def expand(inp: inputs.Inputs):
    return universe.expand(universe.UniverseModel(
        io.load_model(inp.model_path), io.load_program(inp.program_path),
        io.load_domain_spec(inp.domains_path)))


def joint_enumeration(m, target, evidence):
    """P(target) by summing every assignment of the full joint; a dozen atoms at most."""
    factors = m.ground()
    atoms = sorted({a for f in factors for a in f.atoms})
    out = np.zeros(2)
    for values in itertools.product((0, 1), repeat=len(atoms)):
        assign = dict(zip(atoms, values))
        if any(assign[a] != v for a, v in evidence.items()):
            continue
        weight = 1.0
        for f in factors:
            weight *= float(f.table.as_array()[tuple(assign[a] for a in f.atoms)])
        out[assign[target]] += weight
    return out / out.sum()


X1 = lw.GroundAtom("Sick", (lw.Constant("x1"),))
X2_TRAVEL = lw.GroundAtom("Travel", (lw.Constant("x2"),))


@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
def test_closed_form_matches_ground_ve_and_expansion(tmp_path, seed, ragged):
    inp = tiny_inputs(tmp_path, seed, ragged)
    models, expected = expand(inp), oracle.expected_models(inp)
    assert len(models) == len(expected)
    for wm, em in zip(models, expected):
        assert oracle.model_problems(wm, em) == []
        for travel in ({}, {"x2": 1}, {"x2": 0}):
            evidence = lw.Evidence(tuple((X2_TRAVEL, "true" if v else "false") for v in travel.values()))
            want = lw.ground_ve(wm.model, lw.QuerySpec((X1,), evidence)).probs
            np.testing.assert_allclose(oracle.model_answer(inp.tables, em, travel), want,
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("ragged", [False, True])
def test_closed_form_matches_joint_enumeration(tmp_path, ragged):
    inp = tiny_inputs(tmp_path, 3, ragged, sizes=(2, 3))
    for wm, em in zip(expand(inp), oracle.expected_models(inp)):
        want = joint_enumeration(wm.model, X1, {X2_TRAVEL: 1})
        np.testing.assert_allclose(oracle.model_answer(inp.tables, em, {"x2": 1}), want,
                                   rtol=0, atol=1e-12)


def test_closed_form_holds_at_benchmark_sizes(tmp_path):
    """Log space keeps the closed form finite where B ** k overflows doubles."""
    inp = inputs.make_epidemic(4, tmp_path)
    em = oracle.expected_models(inp)[-1]
    assert em.size == 2000
    p = oracle.model_answer(inp.tables, em, {})
    assert np.all(np.isfinite(p)) and abs(p.sum() - 1) < 1e-12


def test_ragged_answer_sees_every_persons_factor(tmp_path):
    """A wrong treatment count for any one other person moves x1's answer past the tolerance."""
    for seed in range(5):
        inp = inputs.make_ragged(seed, tmp_path / str(seed))
        em = oracle.expected_models(inp)[-1]
        counts = {x: len(ts) for x, ts in em.treatments.items()}
        base = oracle.sick_marginal(inp.tables, counts, "x1", {"x2": 1})
        for other in ("x3", f"x{em.size}"):
            wrong = dict(counts, **{other: 3 - counts[other]})
            moved = oracle.sick_marginal(inp.tables, wrong, "x1", {"x2": 1}) - base
            assert abs(moved).max() > 10 * oracle.TOLERANCE


@pytest.mark.parametrize("make", [inputs.make_epidemic, inputs.make_ragged])
def test_inputs_are_deterministic_per_seed(tmp_path, make):
    def files(seed, sub):
        make(seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_ragged_halves_are_fixed_in_size_and_query_persons(tmp_path):
    for seed in range(5):
        inp = inputs.make_ragged(seed, tmp_path / str(seed))
        assert "x1" not in inp.second and "x2" in inp.second
        for n in inputs.RAGGED_SIZES:
            assert len(inp.second & set(inputs.persons(n))) == n // 2


def test_pmf_matches_library_and_sums_to_one():
    n, a, b = 20, 6.0, 15.0
    ours = [oracle.beta_binomial_pmf(k, n, a, b) for k in range(n + 1)]
    assert abs(sum(ours) - 1) < 1e-12
    for k in range(n + 1):
        assert ours[k] == pytest.approx(lw.beta_binomial_pmf(k, n, a, b), rel=1e-12)


def test_selection_oracles():
    points = [(0.5, 0.1), (0.4, 0.3), (0.3, 0.2), (0.4, 0.3), (0.1, 0.9)]
    assert oracle.brute_force_skyline(points) == {0, 1, 3, 4}
    keys = [0.1, 0.5, 0.5 + 1e-12, 0.2]
    assert oracle.is_top_k([1, 2], keys, 2) and oracle.is_top_k([2, 1], keys, 2)
    assert not oracle.is_top_k([1, 3], keys, 2)
    assert not oracle.is_top_k([3, 1], keys, 2)


def test_tracer_counts_ops_and_restores_the_library(tmp_path):
    inp = tiny_inputs(tmp_path, 5, ragged=True, sizes=(4,))
    originals = {n: owner.__dict__[attr] for n, (owner, attr) in tracing.TARGETS.items()}
    q = io.parse_query(inputs.RAGGED_QUERY)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            root = tracer.open("pass")
            models = lw.expand(universe.UniverseModel(
                io.load_model(inp.model_path), io.load_program(inp.program_path),
                io.load_domain_spec(inp.domains_path)))
            lw.query_all(models, q)
            tracer.close(root)
    finally:
        tracer.uninstall()
    assert {n: owner.__dict__[attr] for n, (owner, attr) in tracing.TARGETS.items()} == originals
    assert universe.evaluate is lw.program.evaluate
    layers = tracing.layer_metrics(tracer.spans, untraced_pass_s=1.0)
    assert layers["engine.ops.ground"][0] > 0 and layers["universe.expand_ms"][0] > 0
    assert 0 < layers["engine.lifted_share"][0] < 1
