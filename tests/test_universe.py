import copy
import gc
import pickle

import numpy as np
import pytest

from liftworlds import (
    BetaBinomialDomain,
    Constant,
    Constraint,
    DomainSpec,
    EnumeratedDomain,
    FixedDomain,
    UniverseModel,
    Provenance,
    ValidationError,
    WeightedModel,
    WorldFilter,
    beta_binomial_pmf,
    enumerate_worlds,
    expand,
    instantiate,
    io,
    manifest_rows,
    parse_program,
    parse_query,
    query_all,
)
from liftworlds import program, universe
from liftworlds.program import ConstraintWorld, evaluate as evaluate_program
from liftworlds.domains import DomainWorld
from support import (
    EXAMPLE_PROGRAM,
    T,
    X,
    eager_evaluate,
    epidemic_template,
    expansion_digest,
    pair_universe,
    ts,
    xs,
)
from test_program import SHAPE_CASES, _case_program, random_case, xy_template
from test_queries import NAMED_PERSON, TOP_OVER_T, bundled_universe


PEOPLE = tuple(Constant(n) for n in ("alice", "bob", "eve"))


def paper_universe(filt=None):
    spec = DomainSpec(
        {
            "X": BetaBinomialDomain(6.0, 15.0, bins=20, step=100),
            "T": FixedDomain(tuple(ts(3))),
        }
    )
    return UniverseModel(epidemic_template(), parse_program(EXAMPLE_PROGRAM), spec, filt)


def fixed_universe(program_text, x_constants=PEOPLE, filt=None):
    spec = DomainSpec(
        {"X": FixedDomain(tuple(x_constants)), "T": FixedDomain(tuple(ts(3)))}
    )
    return UniverseModel(epidemic_template(), parse_program(program_text), spec, filt)


TOP_PROGRAM = "constraint g0 <- top.\nconstraint g1 <- top.\nconstraint g2 <- top."


class TestInstantiate:
    def test_fills_template_constraints(self):
        tmpl = epidemic_template()
        dw = DomainWorld({X: PEOPLE, T: tuple(ts(3))})
        worlds = evaluate_program(parse_program(EXAMPLE_PROGRAM), tmpl, dw)
        model = instantiate(tmpl, worlds[0])
        assert model.parfactors[1].constraint.size == 3
        assert model.parfactors[2].constraint.size == 6

    def test_round_trip(self):
        tmpl = epidemic_template()
        dw = DomainWorld({X: PEOPLE, T: tuple(ts(3))})
        cw = evaluate_program(parse_program(EXAMPLE_PROGRAM), tmpl, dw)[0]
        model = instantiate(tmpl, cw)
        assert tuple(p.constraint for p in model.parfactors) == cw.constraints

    def test_empty_constraint_rejected(self):
        tmpl = epidemic_template()
        cw = ConstraintWorld(
            (
                Constraint.extensional((), [()]),
                Constraint.extensional((X,), [(PEOPLE[0],)]),
                Constraint.empty((X, T)),
            ),
            1.0,
        )
        with pytest.raises(ValidationError, match="invalid constraint world"):
            instantiate(tmpl, cw)

    def test_logvar_mismatch_rejected(self):
        tmpl = epidemic_template()
        cw = ConstraintWorld(
            (
                Constraint.extensional((), [()]),
                Constraint.extensional((T,), [(ts(1)[0],)]),
                Constraint.extensional((X, T), [(PEOPLE[0], ts(1)[0])]),
            ),
            1.0,
        )
        with pytest.raises(ValidationError, match="invalid constraint world"):
            instantiate(tmpl, cw)


class TestExpand:
    def test_cascade_keeps_seven_weighted_models(self):
        models = expand(paper_universe(WorldFilter(0.05, cascade=True)))
        assert len(models) == 7
        sizes = [m.provenance.domain_sizes["X"] for m in models]
        assert sizes == [200, 300, 400, 500, 600, 700, 800]
        t1, t2 = Constant("t1"), Constant("t2")
        for m, size in zip(models, sizes):
            k = size // 100
            assert m.prob == pytest.approx(0.7 * beta_binomial_pmf(k, 20, 6, 15), rel=1e-9)
            c2 = m.model.parfactors[2].constraint
            assert {t for _, t in c2.tuples} == {t1, t2}
            assert c2.size == 2 * size

    def test_threshold_without_cascade_keeps_24(self):
        assert len(expand(paper_universe(WorldFilter(0.05)))) == 24

    def test_unfiltered_weight_of_smallest_world(self):
        models = expand(paper_universe())
        assert len(models) == 60
        smallest = models[0]
        assert smallest.provenance.domain_sizes["X"] == 100
        assert smallest.prob == pytest.approx(3.56e-2 * 0.7, rel=1e-2)

    def test_top_program_on_fixed_domains(self):
        models = expand(fixed_universe(TOP_PROGRAM))
        assert len(models) == 1
        wm = models[0]
        assert wm.prob == 1.0
        assert wm.model.parfactors[1].constraint.size == 3
        assert wm.model.parfactors[2].constraint.size == 9

    def test_uniform_weights_for_unweighted_domain_side(self):
        spec = DomainSpec(
            {
                "X": EnumeratedDomain(
                    (
                        ((Constant("a"),), None),
                        ((Constant("a"), Constant("b")), None),
                        ((Constant("a"), Constant("b"), Constant("c")), None),
                    )
                ),
                "T": FixedDomain(tuple(ts(3))),
            }
        )
        u = UniverseModel(epidemic_template(), parse_program(EXAMPLE_PROGRAM), spec)
        models = expand(u)
        assert len(models) == 9
        by_dw = {}
        for m in models:
            by_dw.setdefault(m.provenance.domain_world, []).append(m)
        for entries in by_dw.values():
            assert sum(e.prob for e in entries) == pytest.approx(1 / 3, rel=1e-9)
        assert sum(m.prob for m in models) == pytest.approx(1.0, rel=1e-9)

    def test_weights_sum_to_one_without_filtering(self):
        spec = DomainSpec(
            {
                "X": EnumeratedDomain(
                    (
                        ((Constant("a"),), 0.25),
                        ((Constant("a"), Constant("b")), 0.75),
                    )
                ),
                "T": FixedDomain(tuple(ts(3))),
            }
        )
        u = UniverseModel(epidemic_template(), parse_program(EXAMPLE_PROGRAM), spec)
        models = expand(u)
        assert sum(m.prob for m in models) == pytest.approx(1.0, abs=1e-9)

    def test_weights_factor_into_world_probabilities(self):
        models = expand(paper_universe())
        branch = {0: 0.7, 1: 0.2, 2: 0.1}
        for m in models:
            k = m.provenance.domain_sizes["X"] // 100
            want = beta_binomial_pmf(k, 20, 6, 15) * branch[m.provenance.constraint_world]
            assert m.prob == pytest.approx(want, rel=1e-9)

    def test_count_matches_world_product(self):
        models = expand(paper_universe(WorldFilter(0.05)))
        assert len(models) == 8 * 3

    def test_deterministic_order(self):
        a = expand(paper_universe(WorldFilter(0.05, cascade=True)))
        b = expand(paper_universe(WorldFilter(0.05, cascade=True)))
        assert [m.provenance for m in a] == [m.provenance for m in b]
        assert [m.prob for m in a] == [m.prob for m in b]

    def test_degenerate_worlds_flagged_not_dropped(self):
        program = """
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- never(X,Y).
            populate instance_of_X/1 from X.
        """
        models = expand(fixed_universe(program))
        assert len(models) == 1
        assert models[0].degenerate and models[0].model is None

    def test_missing_spec_entry_rejected(self):
        spec = DomainSpec({"X": FixedDomain(PEOPLE)})
        with pytest.raises(ValidationError):
            UniverseModel(epidemic_template(), parse_program(EXAMPLE_PROGRAM), spec)

    def test_unbound_parfactor_rejected(self):
        spec = DomainSpec(
            {"X": FixedDomain(PEOPLE), "T": FixedDomain(tuple(ts(3)))}
        )
        with pytest.raises(ValidationError, match="binding"):
            UniverseModel(
                epidemic_template(), parse_program("constraint g0 <- top."), spec
            )

    def test_binding_arity_and_unknown_populate_rejected_when_made(self):
        spec = DomainSpec({"X": FixedDomain(PEOPLE), "T": FixedDomain(tuple(ts(3)))})
        bindings = "constraint g0 <- top.\nconstraint g1 <- instance_of_X(X).\n"
        wrong_arity = parse_program(bindings + "constraint g2 <- instance_of_X(X).\npopulate instance_of_X/1 from X.")
        with pytest.raises(ValidationError, match="binding for 'g2' has arity 1, parfactor has 2 logvars"):
            UniverseModel(epidemic_template(), wrong_arity, spec)
        unknown = parse_program(bindings + "constraint g2 <- top.\npopulate instance_of_X/1 from Z.")
        with pytest.raises(ValidationError, match="populate directive for unknown logvar 'Z'"):
            UniverseModel(epidemic_template(), unknown, spec)


class TestGolden:
    # digests of the tuple-at-a-time, per-world evaluation over the whole
    # populated database, which world-shape evaluation must reproduce
    @pytest.mark.parametrize(
        "filt, digest",
        [
            (None, "f124e2b848beb76b3f658d5f775f87c6e38c3582efe371b81f3f36ad30669d9a"),
            (
                WorldFilter(0.05, cascade=True),
                "95853991d3f5af378342e2dbabfb24ee4a071674f156d8611866cc396742c21a",
            ),
        ],
    )
    def test_bundled_triple_expansion(self, data_dir, filt, digest):
        u = UniverseModel(
            io.load_model(data_dir / "model.json"),
            io.load_program(data_dir / "constraints.program"),
            io.load_domain_spec(data_dir / "domains.json"),
            filt,
        )
        assert expansion_digest(expand(u)) == digest


class TestManifest:
    def test_rows_describe_models(self):
        u = paper_universe(WorldFilter(0.05, cascade=True))
        models = expand(u)
        rows = manifest_rows(models, u.template)
        assert len(rows) == 7
        assert list(rows[0]) == [
            "world_id",
            "size_X",
            "size_T",
            "constraint_world",
            "weight",
            "degenerate",
        ]
        assert rows[0]["size_X"] == 200
        assert rows[0]["size_T"] == 3
        assert rows[3]["weight"] == pytest.approx(
            0.7 * beta_binomial_pmf(5, 20, 6, 15), rel=1e-9
        )


def seeded_ragged(seed: int) -> UniverseModel:
    """:data:`NAMED_PERSON` over drawn person counts, a drawn few more of the persons treated twice."""
    rng = np.random.default_rng(seed)
    sizes = sorted({int(n) for n in rng.integers(1, 12, 4)})
    second = sorted({int(i) for i in rng.integers(1, 12, 3)})
    text = NAMED_PERSON + "".join(f"special(x{i}).\n" for i in second)
    spec = DomainSpec({
        "X": EnumeratedDomain(tuple((tuple(xs(n)), 1 / len(sizes)) for n in sizes)),
        "T": FixedDomain(tuple(ts(2))),
    })
    return UniverseModel(epidemic_template(), parse_program(text), spec)


def seeded_top(seed: int) -> UniverseModel:
    """:data:`TOP_OVER_T` over drawn person counts and drawn treatment domains, some naming a person."""
    rng = np.random.default_rng(seed)
    pool = ["t1", "t2", "t3", "x1", "x2"]
    options = [tuple(map(Constant, rng.choice(pool, int(rng.integers(1, 4)), replace=False))) for _ in range(3)]
    spec = DomainSpec({
        "X": BetaBinomialDomain(2.0, 3.0, bins=int(rng.integers(2, 6)), step=1),
        "T": EnumeratedDomain(tuple((cs, 1 / 3) for cs in options)),
    })
    return UniverseModel(epidemic_template(), parse_program(TOP_OVER_T), spec)


def assert_lazy_is_eager(u: UniverseModel) -> tuple[WeightedModel, ...]:
    """Every world of ``u``, built when read, against :func:`support.eager_evaluate`.

    ``evaluate`` runs over every domain world with one memo, as ``expand``
    does, before any world is read, and the worlds are read last first, so
    no world's constraints or model are built before its memo has served
    the worlds after it. Each constraint world's constraints must have the
    reference's blocks, in its order, and its ``degenerate`` flag; each
    weighted world's ``degenerate`` flag, read before its model, must be the
    reference's, and its model must hold the template's tables over the
    reference's constraints, or be None in a degenerate world.
    """
    dws = enumerate_worlds(u.domain_spec, u.template)
    memo = program.EvaluationMemo()
    lazy = [evaluate_program(u.program, u.template, dw, memo) for dw in dws]
    models = expand(u)
    eager: dict[int, list[ConstraintWorld]] = {}
    for wm in reversed(models):
        k, j = wm.provenance.domain_world, wm.provenance.constraint_world
        if k not in eager:
            eager[k] = eager_evaluate(u.program, u.template, dws[k])
        ref, cw = eager[k][j], lazy[k][j]
        assert cw.degenerate == wm.degenerate == ref.degenerate, wm.provenance
        assert [c.blocks for c in cw.constraints] == [c.blocks for c in ref.constraints], wm.provenance
        assert cw.constraints == ref.constraints
        if ref.degenerate:
            assert wm.model is None
        else:
            assert [p.table for p in wm.model.parfactors] == [pf.table for pf in u.template.parfactors]
            assert [p.constraint.blocks for p in wm.model.parfactors] == [c.blocks for c in ref.constraints]
    return models


class TestWorldsBuiltWhenRead:
    def test_bundled_triples(self, data_dir):
        assert len(assert_lazy_is_eager(bundled_universe(data_dir))) == 60
        assert len(assert_lazy_is_eager(bundled_universe(data_dir, bins=2000, step=1))) == 6000

    def test_pair_universe(self):
        models = assert_lazy_is_eager(pair_universe(5, 1))
        assert len(models) == 25 and all(wm.form is not None for wm in models)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_ragged_and_top_triples(self, seed):
        for u in (seeded_ragged(seed), seeded_top(seed)):
            assert all(wm.form is not None for wm in assert_lazy_is_eager(u))

    def test_programs_of_the_randomized_program_differential(self, rng):
        formless = degenerate = 0
        for _ in range(60):
            text, spec = random_case(rng)
            models = assert_lazy_is_eager(UniverseModel(xy_template(), parse_program(_case_program(text)), DomainSpec(spec)))
            formless += any(wm.form is None for wm in models)
            degenerate += any(wm.degenerate for wm in models)
        assert formless and degenerate, (formless, degenerate)

    def test_a_listed_pattern_over_a_one_constant_pool(self):
        # Z's beta-binomial has a size-1 bin, so p's pool of Z holds one
        # constant, and d4's pattern that repeats A beside B lists from it
        rules, spec = SHAPE_CASES["a repeat beside another representative of its type"]
        u = UniverseModel(xy_template(True), parse_program(_case_program(rules, True)), DomainSpec(spec))
        models = assert_lazy_is_eager(u)
        assert any(wm.form is None and wm.provenance.domain_sizes["Z"] == 1 for wm in models)


class TestErrorsRaiseFromTheCall:
    """``expand`` and ``evaluate`` raise each of their errors themselves, never from a later read.

    A memo that serves another program or template raises from ``evaluate``
    in ``test_program``'s ``test_a_memo_serves_only_the_program_and_template_of_its_first_call``.
    """

    def test_evaluate_missing_domain(self):
        tmpl, prog = epidemic_template(), parse_program(TOP_OVER_T)
        with pytest.raises(ValidationError, match="missing domain for logvar 'T'"):
            evaluate_program(prog, tmpl, DomainWorld({X: PEOPLE}))

    def test_evaluate_program_that_does_not_fit_the_template(self):
        dw = DomainWorld({X: PEOPLE, T: tuple(ts(2))})
        with pytest.raises(ValidationError, match="no binding for parfactor 'g2'"):
            evaluate_program(parse_program("constraint g0 <- top.\nconstraint g1 <- top."), epidemic_template(), dw)
        wrong = TOP_OVER_T.replace("g2 <- top", "g2 <- instance_of_X(X)")
        with pytest.raises(ValidationError, match="has arity 1"):
            evaluate_program(parse_program(wrong), epidemic_template(), dw)

    def test_expand_domain_spec_errors(self):
        mixed = DomainSpec({"X": BetaBinomialDomain(2.0, 3.0, bins=3, step=1), "T": EnumeratedDomain(((tuple(ts(2)), None),))})
        with pytest.raises(ValidationError, match="cannot mix"):
            expand(UniverseModel(epidemic_template(), parse_program(TOP_OVER_T), mixed))
        crowded = DomainSpec({
            "X": BetaBinomialDomain(2.0, 3.0, bins=3, step=1, guaranteed=PEOPLE), "T": FixedDomain(tuple(ts(2)))
        })
        with pytest.raises(ValidationError, match="do not fit"):
            expand(UniverseModel(epidemic_template(), parse_program(TOP_OVER_T), crowded))


class TestCheapWorlds:
    """What a world that ``expand`` made keeps."""

    def test_worlds_of_a_domain_world_share_read_only_sizes(self):
        models = expand(paper_universe())
        first = [wm for wm in models if wm.provenance.domain_world == 0]
        assert len(first) == 3
        sizes = first[0].provenance.domain_sizes
        assert all(wm.provenance.domain_sizes is sizes for wm in first)
        with pytest.raises(TypeError):
            sizes["X"] = 1
        with pytest.raises(TypeError):
            del sizes["T"]
        assert [dict(wm.provenance.domain_sizes) for wm in first] == [{"X": 100, "T": 3}] * 3
        given = {"X": 4}
        prov = Provenance(0, 0, given, ("X",))
        given["X"] = 5
        assert prov.domain_sizes == {"X": 4} and prov.domain_size == 4
        with pytest.raises(TypeError):
            prov.domain_sizes["X"] = 5
        with pytest.raises(TypeError):
            prov._replace(domain_sizes={"X": 6}).domain_sizes["X"] = 7
        with pytest.raises(AttributeError):
            first[0].provenance.domain_sizes = {"X": 1}

    def test_gc_tracked_objects_kept_per_world(self, data_dir):
        # a world keeps its weighted model and provenance; its domain world's
        # pool, pool tuple and sizes mapping are shared by its 3 constraint
        # worlds, and the memo's 3 recipes by all 6000 worlds
        u = bundled_universe(data_dir, bins=2000, step=1)
        expand(u)
        gc.collect()
        before = len(gc.get_objects())
        models = expand(u)
        gc.collect()
        kept = len(gc.get_objects()) - before
        assert len(models) == 6000
        assert 3.0 <= kept / len(models) < 3.01, kept


def _parts(model):
    """What a model holds, as values to compare: its tables compare by identity."""
    if model is None:
        return None
    return [(pf.constraint, pf.table.args, pf.table.values.tobytes()) for pf in model.parfactors]


class TestCopies:
    """Worlds, and the values they hold, copy, deep-copy and pickle."""

    def test_a_copy_reads_what_its_world_reads(self, data_dir):
        # a copy starts with its slots empty, so a lazy hook must check the
        # name it is asked for before it reads a slot
        u = bundled_universe(data_dir)
        built = expand(u)
        prov = built[-1].provenance
        degenerate = """
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- never(X,Y).
            populate instance_of_X/1 from X.
        """
        worlds = (
            built[-1],
            expand(u)[-1],  # copied before anything of it is read
            expand(fixed_universe(degenerate))[0],
            WeightedModel(built[0].model, 0.5, prov),
            WeightedModel(None, 0.5, prov),
        )
        for wm in worlds:
            twin = copy.copy(wm)
            assert (twin.model, twin.form, twin.degenerate) == (wm.model, wm.form, wm.degenerate)
        constraints = [[pf.constraint for pf in wm.model.parfactors] for wm in worlds[:2]]
        assert constraints[0] == constraints[1] and worlds[1].form is not None
        assert worlds[2].degenerate and worlds[3].form is None and worlds[4].degenerate
        dw = enumerate_worlds(u.domain_spec, u.template)[0]
        for cw in evaluate_program(u.program, u.template, dw):
            twin = copy.copy(cw)
            assert (twin.constraints, twin.degenerate, twin.prob, twin.choice) == (
                cw.constraints, cw.degenerate, cw.prob, cw.choice
            )
            assert twin == cw and hash(twin) == hash(cw)

    def test_a_pickle_or_copy_builds_nothing_its_world_has_not(self, data_dir, monkeypatch):
        # a world's state leaves out what it has not built, so pickling and
        # copying the 60 bundled worlds, or their constraint worlds, builds
        # no model and no constraint; each round-tripped world builds, when
        # read, what its original builds
        u = bundled_universe(data_dir)
        models = expand(u)
        dw = enumerate_worlds(u.domain_spec, u.template)[0]
        worlds = evaluate_program(u.program, u.template, dw)
        built = []
        real_instantiate, real_constraints = universe.instantiate, program._Recipe.constraints
        monkeypatch.setattr(universe, "instantiate", lambda *a: built.append(a) or real_instantiate(*a))
        monkeypatch.setattr(program._Recipe, "constraints", lambda *a: built.append(a) or real_constraints(*a))
        assert len(models) == 60 and worlds
        copies = []
        for values in (models, worlds):
            copies.append(pickle.loads(pickle.dumps(values)))
            copies.append([copy.copy(v) for v in values])
        assert built == []
        monkeypatch.undo()
        for twins in copies[:2]:
            assert [_parts(t.model) for t in twins] == [_parts(wm.model) for wm in models]
            assert [t.form is not None for t in twins] == [wm.form is not None for wm in models]
        # a copy shares its world's tables, so it builds an equal model
        assert [t.model for t in copies[1]] == [wm.model for wm in models]
        for twins in copies[2:]:
            assert [t.constraints for t in twins] == [cw.constraints for cw in worlds]
            assert list(twins) == list(worlds)

    def test_an_expansion_round_trips_through_pickle_and_deepcopy(self, data_dir):
        models = expand(bundled_universe(data_dir))
        q = parse_query("P(Sick(x1))")
        want = query_all(models, q)
        for copied in (pickle.loads(pickle.dumps(models)), copy.deepcopy(models)):
            got = query_all(copied, q)
            assert [e.provenance for e in got.entries] == [e.provenance for e in want.entries]
            assert [e.answer.probs.tobytes() for e in got.entries] == [e.answer.probs.tobytes() for e in want.entries]
            assert got.skipped == want.skipped
            assert [wm.form is not None for wm in copied] == [wm.form is not None for wm in models]
            sizes = copied[0].provenance.domain_sizes
            assert sizes == models[0].provenance.domain_sizes
            with pytest.raises(TypeError):
                sizes["X"] = 1
