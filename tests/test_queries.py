import json
from collections import Counter

import numpy as np
import pytest

from liftworlds import (
    BOOLEAN,
    Constant,
    ConstantSet,
    Constraint,
    DomainSpec,
    EnumeratedDomain,
    Evidence,
    FixedDomain,
    GroundAtom,
    InferenceError,
    MarginalDistribution,
    PRV,
    Parfactor,
    ParameterisedModel,
    PotentialTable,
    QuerySpec,
    UniverseModel,
    ValidationError,
    EventProbe,
    event_probability,
    expand,
    ground_ve,
    io,
    lifted_query,
    parse_program,
    parse_query,
    query_all,
    skyline,
    top_k_model_prob,
    top_k_query_prob,
    trend_report,
)
from liftworlds import engine, queries
from liftworlds.model import _shape
from liftworlds.queries import AnswerEntry, AnswerSet
from liftworlds.universe import Provenance, WeightedModel
from support import (
    EPID,
    SICK,
    TRAVEL,
    TREAT,
    T,
    X,
    brute_force_skyline,
    epidemic_model,
    epidemic_template,
    example_tables,
    members,
    ragged_model,
    ts,
    xs,
)

TOP_PROGRAM = "constraint g0 <- top.\nconstraint g1 <- top.\nconstraint g2 <- top."

SICK_X1 = GroundAtom("Sick", (Constant("x1"),))
PROBE = EventProbe(SICK_X1, "true")


def sized_universe(sizes, probs):
    """Example-shaped universe over explicitly enumerated person counts."""
    spec = DomainSpec(
        {
            "X": EnumeratedDomain(tuple((tuple(xs(s)), p) for s, p in zip(sizes, probs))),
            "T": FixedDomain(tuple(ts(2))),
        }
    )
    return UniverseModel(epidemic_template(), parse_program(TOP_PROGRAM), spec)


def synthetic_answers(points):
    """Answer set with prescribed (model_prob, P(Sick(x1)=true)) pairs."""
    entries = []
    for i, (m, p) in enumerate(points):
        answer = MarginalDistribution((SICK_X1,), (BOOLEAN,), np.array([1 - p, p]))
        entries.append(AnswerEntry(Provenance(i, 0, {"X": i + 2}, ("X",)), m, answer))
    return AnswerSet(QuerySpec((SICK_X1,)), tuple(entries))


class TestQueryAll:
    def test_matches_ground_ve_per_model(self):
        models = expand(sized_universe((2, 3, 4), (0.5, 0.3, 0.2)))
        aset = query_all(models, QuerySpec((SICK_X1,)))
        assert len(aset.entries) == 3
        assert [e.model_prob for e in aset.entries] == [0.5, 0.3, 0.2]
        for wm, entry in zip(models, aset.entries):
            want = ground_ve(wm.model, aset.query)
            assert np.max(np.abs(entry.answer.probs - want.probs)) < 1e-9

    def test_single_model(self):
        models = expand(sized_universe((3,), (1.0,)))
        aset = query_all(models, QuerySpec((SICK_X1,)))
        assert len(aset.entries) == 1
        assert aset.entries[0].model_prob == 1.0

    def test_small_worlds_are_skipped_with_reason(self):
        models = expand(sized_universe((2, 6), (0.5, 0.5)))
        q = QuerySpec((GroundAtom("Sick", (Constant("x5"),)),))
        aset = query_all(models, q)
        assert len(aset.entries) == 1 and len(aset.skipped) == 1
        assert "x5" in aset.skipped[0].reason
        assert len(aset.entries) + len(aset.skipped) == len(models)

    def test_atom_absent_everywhere_is_an_error(self):
        models = expand(sized_universe((2, 3), (0.5, 0.5)))
        with pytest.raises(InferenceError):
            query_all(models, QuerySpec((GroundAtom("Sick", (Constant("x99"),)),)))

    def test_event_probability_reads_the_marginal(self):
        models = expand(sized_universe((2,), (1.0,)))
        aset = query_all(models, QuerySpec((SICK_X1,)))
        p = event_probability(aset.entries[0].answer, PROBE)
        assert p == pytest.approx(float(aset.entries[0].answer.probs[1]), rel=1e-12)


def counted_calls(monkeypatch) -> list:
    """Every model ``query_all`` hands to ``lifted_query`` from now on."""
    calls = []
    real = queries.lifted_query
    monkeypatch.setattr(queries, "lifted_query", lambda m, q: calls.append(m) or real(m, q))
    return calls


def counted_plans(monkeypatch) -> list:
    """Every model planned from now on, by ``query_all`` or inside ``lifted_query``."""
    plans = []
    real = engine._plan

    def plan(m, q, op_log=None):
        plans.append(m)
        return real(m, q, op_log)

    monkeypatch.setattr(engine, "_plan", plan)
    monkeypatch.setattr(queries, "_plan", plan)
    return plans


def bundled_models(data_dir, **domains):
    """The bundled triple expanded, its ``X`` domain settings replaced by ``domains``."""
    doc = json.loads((data_dir / "domains.json").read_text())
    doc["X"].update(domains)
    return expand(UniverseModel(
        io.load_model(data_dir / "model.json"),
        io.load_program(data_dir / "constraints.program"),
        io.parse_domain_spec(doc),
    ))


def alternating(n, rng_seed=5):
    """A ragged world over x1..x{n}: every person has t1, every second one t2 as well."""
    t1, t2 = ts(2)
    pairs = [(x, t) for i, x in enumerate(xs(n)) for t in ((t1, t2) if i % 2 else (t1,))]
    return ragged_model(pairs, np.random.default_rng(rng_seed))


def counted_pair(treatments):
    """Epid, A(X) and B(X,T) in one parfactor over three persons and ``treatments`` treatments.

    A and B tie on cost and A goes first by name; summing A out is exact only
    when each person has one treatment, so only a world with one counts it out.
    """
    a, b = PRV("A", (X,)), PRV("B", (X, T))
    g0 = Parfactor(PotentialTable((EPID,), [1.0, 2.0]), Constraint.extensional((), [()]))
    g1 = Parfactor(
        PotentialTable((EPID, a, b), np.linspace(0.5, 2.0, 8)),
        Constraint((X, T), ((ConstantSet(xs(3)), ConstantSet(ts(treatments))),)),
    )
    return ParameterisedModel((g0, g1))


def weighted(*models):
    return [WeightedModel(m, 1 / len(models), Provenance(i, 0, {"X": 0}, ("X",))) for i, m in enumerate(models)]


def renamed(m, mapping):
    """``m`` with every constant ``c`` renamed to ``mapping.get(c, c)``, block by block."""

    def move(s):
        return ConstantSet([mapping.get(c, c) for c in members(s)])

    return ParameterisedModel(tuple(
        Parfactor(p.table, Constraint(p.constraint.logvars, tuple(tuple(map(move, b)) for b in p.constraint.blocks)))
        for p in m.parfactors
    ))


def shaped(g1_persons, g2_persons, treatments=("t1", "t2")):
    """The epidemic shape with Sick/Travel over ``g1_persons`` and Treat over ``g2_persons`` x ``treatments``."""
    v0, v1, v2 = example_tables()
    one = lambda names: ConstantSet(map(Constant, names))
    return ParameterisedModel((
        Parfactor(PotentialTable((EPID,), v0), Constraint.extensional((), [()])),
        Parfactor(PotentialTable((EPID, SICK, TRAVEL), v1), Constraint((X,), ((one(g1_persons),),))),
        Parfactor(PotentialTable((EPID, SICK, TREAT), v2),
                  Constraint((X, T), ((one(g2_persons), one(treatments)),))),
    ))


class TestRenamingClasses:
    """Worlds that a renaming of unmentioned constants maps onto each other share one answer."""

    def test_bundled_triple_runs_one_plan(self, monkeypatch, data_dir):
        # 20 person counts x 3 treatment pairs that no query mentions: one
        # structure, 20 region-size vectors, and no size changes a decision
        models = bundled_models(data_dir)
        q = parse_query("P(Sick(x1))")
        plans, calls = counted_plans(monkeypatch), counted_calls(monkeypatch)
        aset = query_all(models, q)
        assert len(aset.entries) == 60 and len(plans) == 1 and calls == []
        sizes_of: dict[int, set] = {}
        for wm, entry in zip(models, aset.entries):
            sizes_of.setdefault(id(entry.answer), set()).add(wm.provenance.domain_size)
        assert len(sizes_of) == 20 and all(len(sizes) == 1 for sizes in sizes_of.values())
        monkeypatch.undo()
        for wm, entry in zip(models, aset.entries):
            assert entry.answer.probs.tobytes() == lifted_query(wm.model, q).probs.tobytes()

    def test_worlds_of_distinct_sizes_share_one_plan(self, monkeypatch):
        # no renaming maps these worlds onto each other, but they have one
        # structure and the plan of the first holds at every size
        models = expand(sized_universe((4, 5, 6), (0.5, 0.3, 0.2)))
        q = QuerySpec((SICK_X1,))
        plans, calls = counted_plans(monkeypatch), counted_calls(monkeypatch)
        aset = query_all(models, q)
        assert len(aset.entries) == 3 and len(plans) == 1 and calls == []
        assert len({id(e.answer) for e in aset.entries}) == 3
        monkeypatch.undo()
        for wm, entry in zip(models, aset.entries):
            assert np.max(np.abs(entry.answer.probs - lifted_query(wm.model, q).probs)) < 1e-12
            assert np.max(np.abs(entry.answer.probs - ground_ve(wm.model, q).probs)) < 1e-9

    @pytest.mark.parametrize(
        "first, second, q",
        [
            # 2 other persons tie in cost with 2 treatments; 4 do not
            (epidemic_model(3, 2, np.random.default_rng(3)), epidemic_model(5, 2, np.random.default_rng(3)),
             QuerySpec((SICK_X1,))),
            # A's instances count the groundings only with one treatment each
            (counted_pair(1), counted_pair(2), QuerySpec((GroundAtom("Epid"),))),
        ],
        ids=["cost-order", "equal-count"],
    )
    def test_a_decision_that_sizes_change_splits_the_plan(self, monkeypatch, first, second, q):
        fixed = [ConstantSet((c,)) for c in sorted({c for a in q.targets for c in a.args})]
        (sizes1, structure1, regions), (sizes2, structure2, _) = _shape(first, fixed), _shape(second, fixed)
        assert structure1 == structure2 and sizes1 != sizes2
        signs, _ = engine._at_sizes(engine._plan(first, q), regions, [sizes1, sizes2])
        assert list(signs[0]) != list(signs[1])
        logs = [], []
        for m, log in zip((first, second), logs):
            lifted_query(m, q, op_log=log)
        sum_outs = [[r.detail for r in log if r.kind == "sum_out"] for log in logs]
        stuck = [[r.detail for r in log if r.kind == "ground" and ":" in r.detail] for log in logs]
        assert sum_outs[0] != sum_outs[1] or stuck[0] != stuck[1]
        plans = counted_plans(monkeypatch)
        aset = query_all(weighted(first, second), q)
        assert len(plans) == 2
        monkeypatch.undo()
        for m, entry in zip((first, second), aset.entries):
            assert np.max(np.abs(entry.answer.probs - lifted_query(m, q).probs)) < 1e-12
            assert np.max(np.abs(entry.answer.probs - ground_ve(m, q).probs)) < 1e-9

    def test_worlds_that_agree_with_a_plan_make_its_decisions(self):
        # worlds of one structure at random sizes: a world whose signs equal
        # the planned world's makes every decision its own plan makes (the
        # same ops on the same groups, up to the reasons for being stuck) and
        # has the exponents _at_sizes gives it
        rng = np.random.default_rng(29)
        agreed = disagreed = 0
        for _ in range(60):
            seed, kind = int(rng.integers(100)), int(rng.integers(3))
            if kind == 0:
                worlds = [epidemic_model(int(rng.integers(1, 6)), int(rng.integers(1, 4)), np.random.default_rng(seed))
                          for _ in range(4)]
            elif kind == 1:
                worlds = [counted_pair(int(rng.integers(1, 4))) for _ in range(4)]
            else:
                worlds = [alternating(int(rng.integers(3, 9)), seed) for _ in range(4)]
            target = GroundAtom("Epid") if kind == 1 or rng.random() < 0.3 else SICK_X1
            evidence = ((GroundAtom("Travel", (Constant("x2"),)), "true"),) if kind == 2 else ()
            q = QuerySpec((target,), Evidence(evidence))
            fixed = [ConstantSet((c,)) for c in sorted({c for a in q.targets + q.evidence.atoms() for c in a.args})]
            keys = [_shape(m, fixed) for m in worlds]
            group = [(m, k) for m, k in zip(worlds, keys) if k[1] == keys[0][1]]
            log = []
            plan = engine._plan(worlds[0], q, log)
            signs, exponents = engine._at_sizes(plan, keys[0][2], [k[0] for _, k in group])
            for (m, _), row, exps in zip(group, signs, exponents):
                if list(row) != list(signs[0]):
                    disagreed += 1
                    continue
                own_log = []
                own = engine._plan(m, q, own_log)
                assert list(exps) == own.exponents
                if plan.batchable:
                    agreed += 1
                    assert [(r.kind, r.detail.split(":")[0]) for r in own_log] == [
                        (r.kind, r.detail.split(":")[0]) for r in log
                    ]
        assert agreed > 40 and disagreed > 40, (agreed, disagreed)

    def test_worlds_whose_phase_two_grounds_persons_run_alone(self, monkeypatch):
        # one structure at every size, but Treat is ragged, so phase 2 grounds
        # every person and no plan can hold for another world
        worlds = [alternating(n) for n in (4, 6, 9)]
        q = QuerySpec((SICK_X1,), Evidence(((GroundAtom("Travel", (Constant("x2"),)), "true"),)))
        fixed = [ConstantSet((Constant(c),)) for c in ("x1", "x2")]
        assert len({_shape(m, fixed)[1] for m in worlds}) == 1
        plans, calls = counted_plans(monkeypatch), counted_calls(monkeypatch)
        aset = query_all(weighted(*worlds), q)
        assert len(plans) == 3 and calls == worlds[:-1]
        monkeypatch.undo()
        for m, entry in zip(worlds, aset.entries):
            assert np.max(np.abs(entry.answer.probs - ground_ve(m, q).probs)) < 1e-9

    def test_renamed_copies_share_one_call(self, monkeypatch):
        rng = np.random.default_rng(41)
        kinds = Counter()
        for _ in range(60):
            n = int(rng.integers(2, 6))
            if rng.random() < 0.4:
                m = epidemic_model(n, int(rng.integers(1, 4)), rng)
            else:
                pairs = [(p, t) for p in xs(n) for t in ts(3) if rng.random() < 0.6] or [(xs(1)[0], ts(1)[0])]
                m = ragged_model(pairs, rng)
            treat = m.parfactors[2].constraint.tuples
            persons = sorted({p for p, _ in treat})
            treatments = sorted({t for _, t in treat})
            # a target, maybe Travel evidence on a person, maybe Treat evidence
            target_person = persons[rng.integers(len(persons))]
            targets = [GroundAtom("Sick", (target_person,))] if rng.random() < 0.7 else [GroundAtom("Epid")]
            observed = []
            if rng.random() < 0.5:
                other = persons[rng.integers(len(persons))]
                observed.append((GroundAtom("Travel", (other,)), ("false", "true")[rng.integers(2)]))
            if rng.random() < 0.3:
                atom = GroundAtom("Treat", treat[rng.integers(len(treat))])
                if atom not in targets:
                    observed.append((atom, "true"))
            q = QuerySpec(tuple(targets), Evidence(tuple(observed)))
            mentioned = {c for a in q.targets + q.evidence.atoms() for c in a.args}
            # the others get shuffled fresh names: synthetic ones (runs) and plain ones
            others = [c for c in persons + treatments if c not in mentioned]
            pool = [f"x{k}" for k in rng.choice(np.arange(7, 60), len(others), replace=False)]
            pool = [c if rng.random() < 0.5 else f"p{c[1:]}" for c in pool]
            names = [pool[i] for i in rng.permutation(len(pool))]
            if len(names) > 1 and names == sorted(names):
                names.reverse()
            copy = renamed(m, dict(zip(others, map(Constant, names))))
            kinds["plain"] += any(not c.startswith("x") for c in names)
            kinds["evidence"] += bool(observed)
            calls = counted_calls(monkeypatch)
            aset = query_all(weighted(m, copy), q)
            assert len(calls) == 1
            monkeypatch.undo()
            for model_, entry in zip((m, copy), aset.entries):
                own = lifted_query(model_, q).probs
                assert np.max(np.abs(entry.answer.probs - own)) < 1e-12
                assert np.max(np.abs(entry.answer.probs - ground_ve(model_, q).probs)) < 1e-9
        assert min(kinds.values()) > 10, kinds

    @pytest.mark.parametrize(
        "first, second",
        [
            # the g1 and g2 person sets overlap in one world, are disjoint in the
            # other; the Treat sets make both cut into five regions of one
            # constant, so only which regions each set covers tells them apart
            (shaped(xs(3), ["x3", "t1"], ["t1", "t2"]), shaped(xs(3), ["t1", "t2"], ["x3", "t1"])),
            # the query's x1 is inside the g2 persons in one world, outside in the other
            (shaped(xs(3), ["x1", "x2"]), shaped(xs(3), ["x2", "x3"])),
            # the tables differ
            (epidemic_model(4, 2, np.random.default_rng(1)), epidemic_model(4, 2, np.random.default_rng(2))),
        ],
        ids=["overlap", "query-constant", "tables"],
    )
    def test_worlds_that_no_renaming_maps_get_one_call_each(self, monkeypatch, first, second):
        calls = counted_calls(monkeypatch)
        aset = query_all(weighted(first, second), QuerySpec((SICK_X1,)))
        assert len(calls) == 2
        assert [sorted(map(len, p.constraint.blocks[0])) for p in first.parfactors] == [
            sorted(map(len, p.constraint.blocks[0])) for p in second.parfactors
        ]
        for wm, entry in zip(weighted(first, second), aset.entries):
            assert np.max(np.abs(entry.answer.probs - ground_ve(wm.model, aset.query).probs)) < 1e-9


def test_query_all_matches_lifted_query(data_dir):
    # batched answers against each model's own run, to 1e-12: the bundled
    # worlds (byte for byte), a seeded sample of every person count from 1 to
    # 2000, and seeded ragged worlds, some of one structure
    q = parse_query("P(Sick(x1))")

    def check(models, q):
        aset = query_all(models, q)
        assert len(aset.entries) == len(models)
        return [np.max(np.abs(e.answer.probs - lifted_query(wm.model, q).probs)) for wm, e in zip(models, aset.entries)]

    bundled = bundled_models(data_dir)
    aset = query_all(bundled, q)
    for wm, entry in zip(bundled, aset.entries):
        assert entry.answer.probs.tobytes() == lifted_query(wm.model, q).probs.tobytes()
    unbinned = bundled_models(data_dir, bins=2000, step=1)
    rng = np.random.default_rng(17)
    sizes = {1, 2, 3} | {int(n) for n in rng.choice(np.arange(4, 2001), 30, replace=False)}
    sample = [wm for wm in unbinned if wm.provenance.domain_size in sizes]
    assert len(sample) == 3 * len(sizes)
    assert max(check(sample, q)) < 1e-12
    travel = parse_query("P(Sick(x1) | Travel(x2)=true)")
    ragged = [alternating(n) for n in (4, 7, 10, 15)]
    rng = np.random.default_rng(23)
    for _ in range(20):
        pairs = [(x, t) for x in xs(int(rng.integers(2, 7))) for t in ts(3) if rng.random() < 0.6]
        persons = {p for p, _ in pairs}
        if {"x1", "x2"} <= persons:
            ragged.append(ragged_model(pairs, np.random.default_rng(int(rng.integers(2)))))
    assert len(ragged) > 10
    assert max(check(weighted(*ragged), travel)) < 1e-12


class TestTopK:
    def test_by_query_probability(self):
        aset = synthetic_answers([(0.2, 0.9), (0.5, 0.5), (0.3, 0.7)])
        picked = top_k_query_prob(aset, PROBE, 2)
        assert not picked.clipped
        assert [e.provenance.domain_world for e in picked.entries] == [0, 2]

    def test_k_equal_to_size_is_a_permutation(self):
        aset = synthetic_answers([(0.2, 0.9), (0.5, 0.5), (0.3, 0.7)])
        picked = top_k_query_prob(aset, PROBE, 3)
        assert sorted(e.provenance.domain_world for e in picked.entries) == [0, 1, 2]

    def test_oversized_k_returns_all_flagged(self):
        aset = synthetic_answers([(0.2, 0.9), (0.5, 0.5)])
        picked = top_k_query_prob(aset, PROBE, 10)
        assert picked.clipped and len(picked.entries) == 2

    def test_ties_break_by_model_probability(self):
        aset = synthetic_answers([(0.2, 0.5), (0.6, 0.5), (0.2, 0.4)])
        picked = top_k_query_prob(aset, PROBE, 1)
        assert picked.entries[0].provenance.domain_world == 1

    def test_by_model_probability(self):
        aset = synthetic_answers([(0.1, 0.5), (0.5, 0.5), (0.4, 0.5)])
        picked = top_k_model_prob(aset, 1)
        assert picked.entries[0].provenance.domain_world == 1

    def test_k_zero_rejected(self):
        aset = synthetic_answers([(0.1, 0.5)])
        with pytest.raises(ValidationError):
            top_k_model_prob(aset, 0)

    def test_declining_tables_put_small_sizes_on_top(self):
        sizes = (2, 3, 4, 5)
        models = expand(sized_universe(sizes, (0.1, 0.2, 0.3, 0.4)))
        aset = query_all(models, QuerySpec((SICK_X1,)))
        # the bundled tables make P(Sick(x1)=true) fall as the universe grows
        probes = [event_probability(e.answer, PROBE) for e in aset.entries]
        for wm, e in zip(models, aset.entries):
            want = ground_ve(wm.model, aset.query).event_prob(SICK_X1, "true")
            assert event_probability(e.answer, PROBE) == pytest.approx(want, abs=1e-9)
        assert all(a > b for a, b in zip(probes, probes[1:]))
        picked = top_k_query_prob(aset, PROBE, 3)
        assert [e.provenance.domain_size for e in picked.entries] == [2, 3, 4]


class TestSkyline:
    def test_dominated_point_is_dropped(self):
        aset = synthetic_answers([(0.2, 0.9), (0.5, 0.5), (0.4, 0.4)])
        frontier = skyline(aset, PROBE)
        assert [e.provenance.domain_world for e in frontier] == [1, 0]

    def test_single_entry(self):
        aset = synthetic_answers([(0.3, 0.3)])
        assert len(skyline(aset, PROBE)) == 1

    def test_duplicates_of_frontier_points_survive(self):
        aset = synthetic_answers([(0.5, 0.5), (0.5, 0.5), (0.1, 0.1)])
        assert len(skyline(aset, PROBE)) == 2

    def test_matches_brute_force_on_random_sets(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                grid = np.linspace(0, 1, 5)
                pts = rng.choice(grid, size=(n, 2))
            else:
                pts = rng.uniform(0, 1, size=(n, 2))
            aset = synthetic_answers([(float(m), float(p)) for m, p in pts])
            got = {id(e) for e in skyline(aset, PROBE)}
            want = {id(aset.entries[i]) for i in brute_force_skyline(pts)}
            assert got == want

    def test_invariant_under_model_prob_rescaling(self, rng):
        pts = [(float(m), float(p)) for m, p in rng.uniform(0, 1, size=(40, 2))]
        base = skyline(synthetic_answers(pts), PROBE)
        scaled = skyline(synthetic_answers([(0.31 * m, p) for m, p in pts]), PROBE)
        assert [e.provenance.domain_world for e in base] == [
            e.provenance.domain_world for e in scaled
        ]


class TestTrend:
    def test_decreasing_series(self):
        aset = synthetic_answers([(0.2, 0.5), (0.3, 0.4), (0.5, 0.3)])
        report = trend_report(aset, PROBE)
        assert report.direction == "decreasing"
        assert report.max_adjacent_delta == pytest.approx(0.1, rel=1e-9)

    def test_constant_series(self):
        aset = synthetic_answers([(0.2, 0.3), (0.3, 0.3), (0.5, 0.3)])
        report = trend_report(aset, PROBE)
        assert report.direction == "constant"
        assert report.max_adjacent_delta == 0.0

    def test_non_monotone_series(self):
        aset = synthetic_answers([(0.2, 0.3), (0.3, 0.6), (0.5, 0.1)])
        assert trend_report(aset, PROBE).direction == "non-monotone"

    def test_insufficient_entries(self):
        aset = synthetic_answers([(0.2, 0.3)])
        assert trend_report(aset, PROBE).direction == "insufficient"

    def test_declining_tables_report_decreasing(self):
        models = expand(sized_universe((2, 3, 4, 5), (0.1, 0.2, 0.3, 0.4)))
        aset = query_all(models, QuerySpec((SICK_X1,)))
        assert trend_report(aset, PROBE).direction == "decreasing"
