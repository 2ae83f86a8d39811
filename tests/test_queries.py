import dataclasses
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
    LiftworldsError,
    MarginalDistribution,
    PRV,
    Parfactor,
    ParameterisedModel,
    PotentialTable,
    QuerySpec,
    Range,
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
from click.testing import CliRunner

from liftworlds import engine, queries, universe
from liftworlds.cli import main
from liftworlds.model import _at_sizes, _shape
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
    pair_universe,
    ragged_model,
    shape_keyed_query_all,
    ts,
    xs,
)
from test_program import _case_program, random_case, xy_template

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

    def test_retained_mass_leaves_out_skipped_worlds(self):
        models = expand(sized_universe((2, 5, 6), (0.2, 0.3, 0.5)))
        aset = query_all(models, QuerySpec((GroundAtom("Sick", (Constant("x5"),)),)))
        assert len(aset.skipped) == 1
        assert aset.retained_mass == pytest.approx(0.8, rel=1e-12)

    def test_atom_absent_everywhere_is_an_error(self):
        models = expand(sized_universe((2, 3), (0.5, 0.5)))
        with pytest.raises(InferenceError):
            query_all(models, QuerySpec((GroundAtom("Sick", (Constant("x99"),)),)))

    def test_event_probability_reads_the_marginal(self):
        models = expand(sized_universe((2,), (1.0,)))
        aset = query_all(models, QuerySpec((SICK_X1,)))
        p = event_probability(aset.entries[0].answer, PROBE)
        assert p == pytest.approx(float(aset.entries[0].answer.probs[1]), rel=1e-12)

    def test_event_probability_on_a_joint_sums_out_the_other_target(self):
        # an uneven joint over a 2-valued and a 3-valued target, so a wrong
        # axis or value index reads another sum
        grade = GroundAtom("Grade", (Constant("x1"),))
        joint = MarginalDistribution((SICK_X1, grade), (BOOLEAN, Range(("a", "b", "c"))),
                                     np.array([0.05, 0.1, 0.15, 0.2, 0.22, 0.28]))
        table = joint.as_array()
        for value, i in (("false", 0), ("true", 1)):
            assert joint.event_prob(SICK_X1, value) == pytest.approx(table[i, :].sum(), rel=1e-12)
        for value, j in (("a", 0), ("b", 1), ("c", 2)):
            assert joint.event_prob(grade, value) == pytest.approx(table[:, j].sum(), rel=1e-12)
        assert joint.event_prob(grade, "c") == pytest.approx(0.43, rel=1e-12)


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


def bundled_universe(data_dir, program=None, **domains) -> UniverseModel:
    """The bundled triple, its ``X`` domain settings replaced by ``domains``
    and its program by the text ``program``, if given."""
    doc = json.loads((data_dir / "domains.json").read_text())
    doc["X"].update(domains)
    return UniverseModel(
        io.load_model(data_dir / "model.json"),
        io.load_program(data_dir / "constraints.program") if program is None else parse_program(program),
        io.parse_domain_spec(doc),
    )


def bundled_models(data_dir, program=None, **domains):
    """:func:`bundled_universe` expanded."""
    return expand(bundled_universe(data_dir, program, **domains))


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
        signs, _ = _at_sizes(engine._plan(first, q), regions, [sizes1, sizes2])
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
            signs, exponents = _at_sizes(plan, keys[0][2], [k[0] for _, k in group])
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


FORM_QUERIES = ("P(Sick(x1))", "P(Sick(x1) | Travel(x2)=true)", "P(Epid | Treat(x3,t1)=true)")

# x1 is named: every world holds it, and Treat(x1,t2) is its own block
NAMED_PERSON = """
special(x1).
treated(X,t1) :- instance_of_X(X).
treated(X,t2) :- instance_of_X(X) & special(X).
populate instance_of_X/1 from X.
constraint g0 <- top.
constraint g1 <- instance_of_X(X).
constraint g2 <- treated(X,T).
"""

# T has no populate directive, so g2's top block is T's whole domain
TOP_OVER_T = """
populate instance_of_X/1 from X.
constraint g0 <- top.
constraint g1 <- instance_of_X(X).
constraint g2 <- top.
"""


def counted_shapes(monkeypatch) -> list:
    """Every model ``query_all`` runs ``_shape`` on from now on."""
    shapes = []
    monkeypatch.setattr(queries, "_shape", lambda m, fixed: shapes.append(m) or _shape(m, fixed))
    return shapes


def counted_builds(monkeypatch) -> list:
    """Every constraint world a weighted world builds its model from, from now on."""
    builds = []
    real = universe.instantiate
    monkeypatch.setattr(universe, "instantiate", lambda tmpl, cw: builds.append(cw) or real(tmpl, cw))
    return builds


def sharing(aset) -> list[int]:
    """Each entry's index of the first entry that holds the same answer object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(e.answer), i) for i, e in enumerate(aset.entries)]


def agrees_with_shape_keys(monkeypatch, models, q):
    """``query_all`` and ``support.shape_keyed_query_all`` plan the same models,
    call ``lifted_query`` on the same models, skip the same worlds, share
    answers across the same worlds and answer byte for byte alike, or raise
    the same error. Returns ``query_all``'s answers, or None on an error."""
    runs = []
    for answer in (query_all, shape_keyed_query_all):
        plans, calls = counted_plans(monkeypatch), counted_calls(monkeypatch)
        try:
            out = answer(models, q)
        except LiftworldsError as exc:
            out = repr(exc)
        monkeypatch.undo()
        runs.append((out, [id(m) for m in plans], [id(m) for m in calls]))
    (got, *made), (want, *reference) = runs
    assert made == reference, q
    if isinstance(want, str):
        assert got == want, q
        return None
    assert got.skipped == want.skipped, q
    assert [(e.provenance, e.model_prob) for e in got.entries] == [(e.provenance, e.model_prob) for e in want.entries]
    assert sharing(got) == sharing(want), q
    for e, w in zip(got.entries, want.entries):
        assert (e.answer.targets, e.answer.probs.tobytes()) == (w.answer.targets, w.answer.probs.tobytes()), q
    return got


def test_form_keys_group_worlds_as_shape_keys(data_dir, monkeypatch):
    # a world that expand gave a form is keyed by it, and must be grouped,
    # planned and answered exactly as when every world is keyed by _shape
    small = bundled_models(data_dir, bins=8, step=1)
    for models in (bundled_models(data_dir), bundled_models(data_dir, bins=2000, step=1), small):
        for text in FORM_QUERIES:
            assert agrees_with_shape_keys(monkeypatch, models, parse_query(text))
    # x1 alone in its pool at N = 1, x5 missing from the worlds of N < 5,
    # and two or three constants of one pool, which empty it at N = 2 or 3
    assert len(agrees_with_shape_keys(monkeypatch, small, parse_query("P(Sick(x5))")).skipped) == 3 * 4
    for text in ("P(Sick(x1) | Travel(x2)=true, Travel(x3)=true)", "P(Treat(x2,t3) | Sick(x1)=false)"):
        assert agrees_with_shape_keys(monkeypatch, small, parse_query(text))
    # a query constant the program names, in every world and in no pool
    named = bundled_models(data_dir, NAMED_PERSON, bins=6, step=1)
    assert all(wm.form is not None for wm in named)
    for text in ("P(Sick(x1) | Treat(x2,t1)=true)", "P(Epid | Treat(x1,t2)=true)", "P(Sick(x2))"):
        assert agrees_with_shape_keys(monkeypatch, named, parse_query(text))
    # top bindings over T or X, which no populate fills: their logvars are
    # typed, so a top block is a union of pools too
    top = bundled_models(data_dir, TOP_OVER_T, bins=6, step=1)
    every = expand(sized_universe((1, 2, 3, 5), (0.1, 0.2, 0.3, 0.4)))
    assert all(wm.form is not None for wm in top + every)
    assert agrees_with_shape_keys(monkeypatch, top, parse_query("P(Sick(x1) | Treat(x2,t1)=true)"))
    assert agrees_with_shape_keys(monkeypatch, every, parse_query("P(Sick(x1) | Travel(x2)=true)"))
    # a top-only T whose anonymous constants vary between worlds of one form,
    # and whose x2 is X's too from N = 2 on
    doc = json.loads((data_dir / "domains.json").read_text())
    doc["X"].update(bins=4, step=1)
    options = ((["t1", "t2"], 0.4), (["t3", "t4", "t5"], 0.3), (["t1", "x2"], 0.3))
    doc["T"] = {"worlds": [{"constants": cs, "prob": p} for cs, p in options]}
    varied = expand(UniverseModel(
        io.load_model(data_dir / "model.json"), parse_program(TOP_OVER_T), io.parse_domain_spec(doc)
    ))
    assert len(varied) == 12 and all(wm.form is not None for wm in varied)
    assert len({wm.form[0] for wm in varied}) < len(varied)
    for text in ("P(Sick(x1) | Treat(x2,t1)=true)", "P(Sick(x2) | Treat(x1,x2)=true)", "P(Epid | Treat(x3,t4)=false)"):
        assert agrees_with_shape_keys(monkeypatch, varied, parse_query(text))
    # pairs of persons of one type: each pattern's representatives are
    # distinct, so no pattern is listed and every world has a form
    pairs = expand(pair_universe(4, 1))
    assert len(pairs) == 16 and all(wm.form is not None for wm in pairs)
    assert agrees_with_shape_keys(monkeypatch, pairs, parse_query("P(S(x1) | K(x2,x1)=true)"))
    q = parse_query("P(E | S(x1)=true)")
    aset = agrees_with_shape_keys(monkeypatch, pairs, q)
    assert not aset.skipped
    for wm, entry in zip(pairs, aset.entries):
        assert np.max(np.abs(entry.answer.probs - ground_ve(wm.model, q).probs)) < 1e-9
    # seeded programs of the randomized program differential that leave some
    # world not degenerate, queried on constants of their last such world
    # and on constants their worlds may lack; a pattern that repeats a
    # representative without its linear form among the answers is listed
    # and gets no form
    rng = np.random.default_rng(31)
    constants = ["a", "x1", "x2", "x3", "y", "c0"]
    programs = formed = formless = answered = 0
    while programs < 40:
        text, spec = random_case(rng)
        models = expand(UniverseModel(xy_template(), parse_program(_case_program(text)), DomainSpec(spec)))
        live = [wm for wm in models if wm.model is not None]
        if not live:
            continue
        programs += 1
        formed += any(wm.form is not None for wm in live)
        formless += any(wm.form is None for wm in live)

        def pick(i):  # arguments of B (i = 1), C (2) or D (3), mostly ones the world holds
            held = live[-1].model.parfactors[i].constraint.tuples
            return ",".join(held[rng.integers(len(held))] if rng.random() < 0.8 else rng.choice(constants, len(held[0])))

        x, c, y, u = pick(1), pick(2), pick(3), pick(1)
        for q in (f"P(B({x}))", f"P(B({x}) | D({y})=true, C({c})=false)", f"P(A | D({y})=true, B({u})=false)"):
            answered += agrees_with_shape_keys(monkeypatch, models, parse_query(q)) is not None
    assert formed > 20 and formless > 5 and answered > 60, (formed, formless, answered)


class TestForms:
    """``query_all`` runs ``_shape`` once per form key and planned world, not once per world."""

    def test_bundled_triple_runs_shape_three_times_and_once_for_its_plan(self, data_dir, monkeypatch):
        models = bundled_models(data_dir)
        tags = [wm.form[0] for wm in models]
        assert [sum(t is u for u in tags) for t in tags[:3]] == [20, 20, 20]
        shapes, plans = counted_shapes(monkeypatch), counted_plans(monkeypatch)
        query_all(models, parse_query("P(Sick(x1))"))
        assert len(plans) == 1 and len(shapes) == 4
        assert shapes[-1] is plans[0]

    def test_shape_calls_follow_forms_and_plans_not_worlds(self, data_dir, monkeypatch):
        counts = []
        for bins in (200, 2000):
            models = bundled_models(data_dir, bins=bins, step=1)
            assert len(models) == 3 * bins
            for text in FORM_QUERIES:
                q = parse_query(text)
                names = sorted({c for a in q.targets + q.evidence.atoms() for c in a.args})
                keys = {(wm.form[0], queries._placement(wm.form[1], names)) for wm in models}
                shapes, plans = counted_shapes(monkeypatch), counted_plans(monkeypatch)
                query_all(models, q)
                monkeypatch.undo()
                assert len(shapes) <= len(keys) + len(plans), text
                counts.append(len(shapes))
        assert max(counts) < 20 and counts[:3] == counts[3:], counts

    def test_top_over_unpopulated_logvar_runs_shape_per_form_key_and_plan(self, data_dir, monkeypatch):
        models = bundled_models(data_dir, TOP_OVER_T)
        assert len(models) == 20
        for text in FORM_QUERIES:
            q = parse_query(text)
            names = sorted({c for a in q.targets + q.evidence.atoms() for c in a.args})
            keys = {(wm.form[0], queries._placement(wm.form[1], names)) for wm in models}
            shapes, plans = counted_shapes(monkeypatch), counted_plans(monkeypatch)
            query_all(models, q)
            monkeypatch.undo()
            assert len(shapes) <= len(keys) + len(plans) < 20, text

    def test_replaced_and_hand_built_models_have_no_form(self, data_dir, monkeypatch):
        models = bundled_models(data_dir)
        plain = [dataclasses.replace(wm, model=dataclasses.replace(wm.model)) for wm in models]
        assert all(wm.form is not None for wm in models)
        assert all(wm.form is None for wm in plain)
        assert weighted(epidemic_model(3, 2))[0].form is None
        q = parse_query("P(Sick(x1))")
        shapes = counted_shapes(monkeypatch)
        aset = query_all(plain, q)
        assert [id(m) for m in shapes] == [id(wm.model) for wm in plain]
        monkeypatch.undo()
        assert sharing(aset) == sharing(query_all(models, q))
        assert agrees_with_shape_keys(monkeypatch, plain, q)
        hand = weighted(epidemic_model(3, 2), epidemic_model(5, 2), epidemic_model(5, 2))
        shapes = counted_shapes(monkeypatch)
        query_all(hand, q)
        assert len(shapes) == 3
        monkeypatch.undo()
        # hand-built worlds among formed ones, each a form of its own: one has
        # the sizes of the bundled N = 100 worlds and shares their answer, and
        # the largest is the one planned, for every world of the structure
        extra = weighted(epidemic_model(100, 2), epidemic_model(150, 2), epidemic_model(2100, 2))
        mixed = [*models[:30], *extra[:2], *models[30:], extra[2]]
        shapes, plans, calls = counted_shapes(monkeypatch), counted_plans(monkeypatch), counted_calls(monkeypatch)
        aset = query_all(mixed, q)
        assert (len(shapes), len(plans), calls) == (3 + 3, 1, [])
        assert plans[0] is extra[2].model and [id(m) for m in shapes[3:]] == [id(wm.model) for wm in extra]
        assert aset.entries[30].answer is aset.entries[0].answer
        assert len({id(e.answer) for e in aset.entries}) == 20 + 2
        monkeypatch.undo()
        assert agrees_with_shape_keys(monkeypatch, mixed, q)


    def test_a_planned_world_whose_form_disagrees_with_its_shape_raises(self, data_dir):
        # the last world claims a pool of 5000 persons: its derived sizes are
        # new and the largest, so it is planned, and its own shape disagrees;
        # its model is built from its own pools first, and kept
        models = bundled_models(data_dir)
        assert models[-1].model is not None
        models[-1]._pools = (ConstantSet(runs=((1, 5000),)),)
        with pytest.raises(InferenceError, match="form"):
            query_all(models, parse_query("P(Sick(x1))"))


class TestModelsBuiltWhenRead:
    """A world builds its model when something reads it, and keying a world reads none."""

    def test_cli_expand_builds_no_model(self, data_dir, monkeypatch):
        builds = counted_builds(monkeypatch)
        args = ["expand", "--model", str(data_dir / "model.json"), "--program",
                str(data_dir / "constraints.program"), "--domains", str(data_dir / "domains.json")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert len(result.stdout.splitlines()) == 1 + 60
        assert builds == []

    @pytest.mark.parametrize("bins, step", [(20, 100), (2000, 1)])
    def test_query_all_builds_only_the_worlds_it_shapes_or_plans(self, data_dir, monkeypatch, bins, step):
        for text in FORM_QUERIES:
            models = bundled_models(data_dir, bins=bins, step=step)
            builds, shapes, plans = counted_builds(monkeypatch), counted_shapes(monkeypatch), counted_plans(monkeypatch)
            query_all(models, parse_query(text))
            monkeypatch.undo()
            assert 0 < len(builds) <= len(shapes) + len(plans), (text, len(builds), len(shapes), len(plans))
            assert len({id(cw) for cw in builds}) == len(builds)  # a world keeps its model


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

    def test_increasing_series(self):
        aset = synthetic_answers([(0.2, 0.3), (0.3, 0.3), (0.5, 0.6)])
        report = trend_report(aset, PROBE)
        assert report.direction == "increasing"
        assert report.max_adjacent_delta == pytest.approx(0.3, rel=1e-9)

    def test_insufficient_entries(self):
        aset = synthetic_answers([(0.2, 0.3)])
        assert trend_report(aset, PROBE).direction == "insufficient"

    def test_declining_tables_report_decreasing(self):
        models = expand(sized_universe((2, 3, 4, 5), (0.1, 0.2, 0.3, 0.4)))
        aset = query_all(models, QuerySpec((SICK_X1,)))
        assert trend_report(aset, PROBE).direction == "decreasing"
