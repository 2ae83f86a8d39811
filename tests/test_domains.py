import pytest

from liftworlds import (
    BetaBinomialDomain,
    Constant,
    DomainSpec,
    DomainWorld,
    EnumeratedDomain,
    FixedDomain,
    ValidationError,
    WorldFilter,
    beta_binomial_pmf,
    enumerate_worlds,
    filter_worlds,
    parse_domain_spec,
)
from support import T, X, epidemic_template, ts


def example_spec(**kwargs):
    bb = dict(alpha=6.0, beta=15.0, bins=20, step=100, guaranteed=())
    bb.update(kwargs)
    return DomainSpec(
        {"X": BetaBinomialDomain(**bb), "T": FixedDomain(tuple(ts(3)))}
    )


class TestBetaBinomialPmf:
    def test_reference_values(self):
        assert beta_binomial_pmf(20, 20, 6, 15) == pytest.approx(3.85e-7, rel=1e-2)
        assert beta_binomial_pmf(5, 20, 6, 15) == pytest.approx(1.42e-1, rel=1e-2)
        assert beta_binomial_pmf(1, 20, 6, 15) == pytest.approx(3.56e-2, rel=1e-2)

    def test_uniform_when_alpha_beta_one(self):
        for n in (1, 4, 9):
            for k in range(n + 1):
                assert beta_binomial_pmf(k, n, 1, 1) == pytest.approx(1 / (n + 1), rel=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 40))
            alpha = float(rng.uniform(0.1, 20))
            beta = float(rng.uniform(0.1, 20))
            total = sum(beta_binomial_pmf(k, n, alpha, beta) for k in range(n + 1))
            assert abs(total - 1.0) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            beta_binomial_pmf(1, 20, -1, 15)
        with pytest.raises(ValidationError):
            beta_binomial_pmf(21, 20, 6, 15)


class TestEnumerateWorlds:
    def test_twenty_binned_sizes(self):
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        assert len(worlds) == 20
        sizes = [len(w.domains[X]) for w in worlds]
        assert sizes == [100 * k for k in range(1, 21)]
        for k, w in enumerate(worlds, start=1):
            assert w.prob == pytest.approx(beta_binomial_pmf(k, 20, 6, 15), rel=1e-12)

    def test_fixed_domain_everywhere_with_unit_factor(self):
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        total = 0.0
        for k, w in enumerate(worlds, start=1):
            assert w.domains[T] == tuple(ts(3))
            total += w.prob
        # the k=0 bin is dropped without renormalizing
        assert total == pytest.approx(1.0 - beta_binomial_pmf(0, 20, 6, 15), rel=1e-9)

    def test_guaranteed_constants_come_first(self):
        spec = DomainSpec(
            {
                "X": BetaBinomialDomain(2.0, 2.0, bins=1, step=3, guaranteed=(Constant("a"),)),
                "T": FixedDomain(tuple(ts(3))),
            }
        )
        worlds = enumerate_worlds(spec, epidemic_template())
        assert len(worlds) == 1
        assert worlds[0].domains[X] == (Constant("a"), Constant("x2"), Constant("x3"))
        assert worlds[0].prob == pytest.approx(beta_binomial_pmf(1, 1, 2.0, 2.0), rel=1e-12)

    def test_bins_share_one_constant_per_synthetic_name(self):
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        assert len({id(c) for w in worlds for c in w.domains[X]}) == 2000
        spec = DomainSpec(
            {
                "X": BetaBinomialDomain(2.0, 2.0, bins=3, step=2, guaranteed=(Constant("a"),)),
                "T": FixedDomain(tuple(ts(3))),
            }
        )
        names = [list(w.domains[X]) for w in enumerate_worlds(spec, epidemic_template())]
        assert names == [["a", "x2"], ["a", "x2", "x3", "x4"], ["a"] + [f"x{i}" for i in range(2, 7)]]

    def test_deterministic_and_names_stable(self):
        a = enumerate_worlds(example_spec(), epidemic_template())
        b = enumerate_worlds(example_spec(), epidemic_template())
        assert a == b
        assert a[0].domains[X][0] == Constant("x1")

    def test_guaranteed_overflow_rejected(self):
        spec = DomainSpec(
            {
                "X": BetaBinomialDomain(
                    2.0, 2.0, bins=1, step=1, guaranteed=(Constant("a"), Constant("b"))
                ),
                "T": FixedDomain(tuple(ts(3))),
            }
        )
        with pytest.raises(ValidationError, match="fit"):
            enumerate_worlds(spec, epidemic_template())

    def test_missing_logvar_rejected(self):
        spec = DomainSpec({"X": FixedDomain((Constant("a"),))})
        with pytest.raises(ValidationError, match="missing domain spec"):
            enumerate_worlds(spec, epidemic_template())

    def test_enumerated_options_combine(self):
        spec = DomainSpec(
            {
                "X": EnumeratedDomain(
                    (
                        ((Constant("a"),), 0.25),
                        ((Constant("a"), Constant("b")), 0.75),
                    )
                ),
                "T": FixedDomain(tuple(ts(2))),
            }
        )
        worlds = enumerate_worlds(spec, epidemic_template())
        assert [w.prob for w in worlds] == [0.25, 0.75]
        assert [len(w.domains[X]) for w in worlds] == [1, 2]

    def test_unweighted_enumeration_gives_unweighted_worlds(self):
        spec = DomainSpec(
            {
                "X": EnumeratedDomain(
                    (((Constant("a"),), None), ((Constant("a"), Constant("b")), None))
                ),
                "T": FixedDomain(tuple(ts(2))),
            }
        )
        worlds = enumerate_worlds(spec, epidemic_template())
        assert all(w.prob is None for w in worlds)

    def test_mixed_weighted_unweighted_rejected(self):
        spec = DomainSpec(
            {
                "X": EnumeratedDomain((((Constant("a"),), None),)),
                "T": BetaBinomialDomain(2.0, 2.0, bins=2, step=1),
            }
        )
        with pytest.raises(ValidationError, match="mix"):
            enumerate_worlds(spec, epidemic_template())

    def test_empty_fixed_domain_rejected(self):
        with pytest.raises(ValidationError):
            FixedDomain(())

    def test_repeated_constants_rejected(self):
        a = Constant("a")
        with pytest.raises(ValidationError, match="twice"):
            FixedDomain((a, a))
        with pytest.raises(ValidationError, match="twice"):
            EnumeratedDomain((((a,), 0.5), ((a, a), 0.5)))
        with pytest.raises(ValidationError, match="twice"):
            BetaBinomialDomain(2.0, 2.0, bins=1, step=3, guaranteed=(a, a))

    def test_guaranteed_name_of_a_synthetic_constant_rejected(self):
        # the synthetic names run x2 .. x6 after one guaranteed constant
        for name in ("x2", "x3", "x6"):
            with pytest.raises(ValidationError, match="synthetic"):
                BetaBinomialDomain(2.0, 2.0, bins=2, step=3, guaranteed=(Constant(name),))
        for name in ("x1", "x7", "x03"):
            BetaBinomialDomain(2.0, 2.0, bins=2, step=3, guaranteed=(Constant(name),))

    def test_world_size_counts_distinct_constants(self):
        # with x3 guaranteed, bin 1 would be (x3, x2, x3): its provenance would
        # say X = 3 while g1 holds 2 persons
        spec = {
            "X": {"alpha": 2, "beta": 2, "bins": 1, "step": 3, "guaranteed": ["x3"]},
            "T": {"constants": ["t1", "t2"]},
        }
        with pytest.raises(ValidationError, match="synthetic"):
            parse_domain_spec(spec)


class TestFilterWorlds:
    def test_threshold_keeps_sizes_200_to_900(self):
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        result = filter_worlds(worlds, WorldFilter(0.05))
        sizes = [len(w.domains[X]) for w in result.kept]
        assert sizes == [200, 300, 400, 500, 600, 700, 800, 900]

    def test_zero_threshold_keeps_all(self):
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        result = filter_worlds(worlds, WorldFilter(0.0))
        assert result.kept == worlds
        assert result.dropped == 0

    def test_cascade_example_keeps_seven(self):
        # 8 surviving sizes x (0.7, 0.2, 0.1); combined weights against 0.05
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        kept_domains = filter_worlds(worlds, WorldFilter(0.05)).kept
        combined = [
            DomainWorld(w.domains, w.prob * p) for w in kept_domains for p in (0.7, 0.2, 0.1)
        ]
        assert len(combined) == 24
        result = filter_worlds(combined, WorldFilter(0.05))
        assert len(result.kept) == 7
        assert [len(w.domains[X]) for w in result.kept] == [200, 300, 400, 500, 600, 700, 800]

    def test_order_and_probabilities_untouched(self, rng):
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        result = filter_worlds(worlds, WorldFilter(0.01))
        probs = [w.prob for w in worlds if w.prob > 0.01]
        assert [w.prob for w in result.kept] == probs
        assert result.retained_mass == pytest.approx(sum(probs), rel=1e-12)

    def test_raising_threshold_never_keeps_more(self, rng):
        worlds = enumerate_worlds(example_spec(), epidemic_template())
        previous = len(worlds)
        for t in sorted(rng.uniform(0, 0.2, 10)):
            kept = len(filter_worlds(worlds, WorldFilter(float(t))).kept)
            assert kept <= previous
            previous = kept

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            WorldFilter(1.0)
        with pytest.raises(ValidationError):
            WorldFilter(-0.1)

    def test_unweighted_worlds_rejected(self):
        with pytest.raises(ValidationError):
            filter_worlds([DomainWorld({X: (Constant("a"),)})], WorldFilter(0.1))
