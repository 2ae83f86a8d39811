import pytest

from liftworlds import (
    BetaBinomialDomain,
    Constant,
    Constraint,
    DomainSpec,
    EnumeratedDomain,
    FixedDomain,
    UniverseModel,
    ValidationError,
    WorldFilter,
    beta_binomial_pmf,
    expand,
    instantiate,
    io,
    manifest_rows,
    parse_program,
)
from liftworlds.program import ConstraintWorld, evaluate as evaluate_program
from liftworlds.domains import DomainWorld
from support import EXAMPLE_PROGRAM, T, X, epidemic_template, expansion_digest, ts


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
