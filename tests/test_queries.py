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
from liftworlds import queries
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

    def test_bundled_triple_answers_twenty_classes(self, monkeypatch, data_dir):
        # 20 person counts x 3 treatment pairs that no query mentions
        models = expand(UniverseModel(
            io.load_model(data_dir / "model.json"),
            io.load_program(data_dir / "constraints.program"),
            io.load_domain_spec(data_dir / "domains.json"),
        ))
        q = parse_query("P(Sick(x1))")
        calls = counted_calls(monkeypatch)
        aset = query_all(models, q)
        assert len(aset.entries) == 60 and len(calls) == 20
        assert len({wm.provenance.domain_size for wm in models if wm.model in calls}) == 20
        monkeypatch.undo()
        for wm, entry in zip(models, aset.entries):
            assert entry.answer.probs.tobytes() == lifted_query(wm.model, q).probs.tobytes()

    def test_worlds_of_distinct_sizes_build_no_shape(self, monkeypatch):
        # a renaming keeps constraint sizes, so these worlds cannot share
        made = []
        real = queries._shape
        monkeypatch.setattr(queries, "_shape", lambda *a: made.append(a) or real(*a))
        models = expand(sized_universe((2, 3, 4), (0.5, 0.3, 0.2)))
        calls = counted_calls(monkeypatch)
        assert len(query_all(models, QuerySpec((SICK_X1,))).entries) == 3
        assert (len(calls), made) == (3, [])

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
