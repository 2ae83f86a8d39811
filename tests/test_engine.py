import hashlib
import itertools

import numpy as np
import pytest

from liftworlds import (
    Constant,
    Constraint,
    ConstraintsMisaligned,
    Evidence,
    GroundAtom,
    InferenceError,
    Logvar,
    NotCountNormalized,
    PRV,
    Parfactor,
    ParameterisedModel,
    PotentialTable,
    QuerySpec,
    UniverseModel,
    ValidationError,
    expand,
    ground_ve,
    lifted_query,
)
from liftworlds import io
from liftworlds.engine import _absorb, _lifted, _multiply, _sum_out
from liftworlds.model import _decompose, _groundings, _split, conditional_count, project
from support import (
    EPID,
    SICK,
    T,
    TRAVEL,
    TREAT,
    X,
    all_atoms,
    epidemic_model,
    group_instances,
    joint_enumeration,
    ragged_model,
    ts,
    unnormalized_table,
    xs,
)


def atom(name, *args):
    return GroundAtom(name, tuple(Constant(a) for a in args))


def c_x(n):
    return Constraint.extensional((X,), [(x,) for x in xs(n)])


def c_xt(nx, nt):
    return Constraint.extensional((X, T), [(x, t) for x in xs(nx) for t in ts(nt)])


def lifted(p):
    """The engine's log-space factor for a parfactor."""
    return _lifted(p.table.args, np.log(p.table.as_array()), p.constraint)


def ground(p):
    return ParameterisedModel((p,)).ground()


def random_factor(rng, name):
    """A parfactor over 0-3 of the logvars X, Y, Z in random order, with a random
    non-empty subset of their tuples over 1-3 constants. Its arguments are
    ``name`` over all its logvars and, when it has any, ``name + "1"`` over the
    first one."""
    logvars = [Logvar(n) for n in rng.permutation(["X", "Y", "Z"])[: rng.integers(0, 4)]]
    constants = [Constant(c) for c in "abc"[: rng.integers(1, 4)]]
    every = list(itertools.product(constants, repeat=len(logvars)))
    keep = rng.random(len(every)) < rng.uniform(0.2, 1.0)
    keep[rng.integers(len(every))] = True
    args = (PRV(name, tuple(logvars)),) + ((PRV(name + "1", tuple(logvars[:1])),) if logvars else ())
    table = PotentialTable(args, rng.uniform(0.1, 2, 2 ** len(args)))
    return Parfactor(table, Constraint.extensional(logvars, [t for t, k in zip(every, keep) if k]))


def reference_join(c1, c2):
    """The join by brute force, and whether it pairs the groundings of both one-to-one."""
    shared = [lv for lv in c2.logvars if lv in c1.logvars]
    extra = tuple(lv for lv in c2.logvars if lv not in c1.logvars)
    joined = [
        t1 + tuple(t2[c2.position(lv)] for lv in extra)
        for t1, t2 in itertools.product(c1.tuples, c2.tuples)
        if all(t1[c1.position(lv)] == t2[c2.position(lv)] for lv in shared)
    ]
    if not joined:
        return None, False
    join = Constraint.extensional(c1.logvars + extra, joined)
    try:
        one_to_one = all(
            project(join, c.logvars) == c
            and conditional_count(join, [lv for lv in join.logvars if lv not in c.logvars]) == 1
            for c in (c1, c2)
        )
    except NotCountNormalized:
        one_to_one = False
    return join, one_to_one


class TestGroundVE:
    def test_single_factor_normalization(self):
        m = ParameterisedModel(
            (Parfactor(PotentialTable((EPID,), [1, 3]), Constraint.extensional((), [()])),)
        )
        result = ground_ve(m, QuerySpec((atom("Epid"),)))
        assert np.allclose(result.probs, [0.25, 0.75])

    def test_disconnected_factors_are_independent_of_domain_size(self):
        for d in (1, 3, 5):
            g = Parfactor(PotentialTable((SICK,), [1, 4]), c_x(d))
            m = ParameterisedModel((g,))
            result = ground_ve(m, QuerySpec((atom("Sick", "x1"),)))
            assert np.allclose(result.probs, [0.2, 0.8])

    def test_matches_joint_enumeration(self, rng):
        for _ in range(20):
            dx, dt = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            m = epidemic_model(dx, dt, rng)
            atoms = all_atoms(m)
            target = atoms[int(rng.integers(len(atoms)))]
            others = [a for a in atoms if a != target]
            n_ev = int(rng.integers(0, 3))
            ev = [
                (others[i], ["false", "true"][int(rng.integers(2))])
                for i in rng.permutation(len(others))[:n_ev]
            ]
            got = ground_ve(m, QuerySpec((target,), Evidence(tuple(ev))))
            want = joint_enumeration(m, (target,), ev)
            assert np.max(np.abs(got.probs - want)) < 1e-9

    def test_unknown_atom_rejected(self):
        m = epidemic_model(2, 2)
        with pytest.raises(InferenceError, match="not in model"):
            ground_ve(m, QuerySpec((atom("Sick", "x9"),)))

    def test_inconsistent_evidence_rejected(self):
        g = Parfactor(PotentialTable((EPID, SICK), [1, 0, 1, 0]), c_x(1))
        m = ParameterisedModel((g,))
        q = QuerySpec((atom("Epid"),), Evidence(((atom("Sick", "x1"), "true"),)))
        with pytest.raises(InferenceError, match="inconsistent evidence"):
            ground_ve(m, q)


class TestLiftMultiply:
    def test_identical_constraints_multiply_pointwise(self, rng):
        v1, v2 = rng.uniform(0.1, 2, 4), rng.uniform(0.1, 2, 4)
        g1 = Parfactor(PotentialTable((EPID, SICK), v1), c_x(3))
        g2 = Parfactor(PotentialTable((EPID, SICK), v2), c_x(3))
        out = _multiply(lifted(g1), lifted(g2))
        assert out.constraint == c_x(3)
        assert np.allclose(np.exp(out.logtab).ravel(), v1 * v2, rtol=1e-12)

    def test_table_of_ones_is_identity(self, rng):
        v = rng.uniform(0.1, 2, 4)
        g1 = Parfactor(PotentialTable((EPID, SICK), v), c_x(2))
        g2 = Parfactor(PotentialTable((EPID, SICK), np.ones(4)), c_x(2))
        out = _multiply(lifted(g1), lifted(g2))
        assert np.allclose(np.exp(out.logtab).ravel(), v, rtol=1e-12)

    def test_disjoint_arguments_outer_product(self, rng):
        # singleton groups over unrelated logvars; checked against ground_ve
        y = Logvar("Y")
        travel_y = PRV("Travel", (y,))
        v1, v2 = rng.uniform(0.1, 2, 2), rng.uniform(0.1, 2, 2)
        g1 = Parfactor(PotentialTable((SICK,), v1), c_x(1))
        g2 = Parfactor(
            PotentialTable((travel_y,), v2),
            Constraint.extensional((y,), [(Constant("x2"),)]),
        )
        out = _multiply(lifted(g1), lifted(g2))
        assert np.allclose(np.exp(out.logtab), np.outer(v1, v2), rtol=1e-12)
        m = ParameterisedModel((g1, g2))
        q = QuerySpec((atom("Sick", "x1"), atom("Travel", "x2")))
        got = ground_ve(m, q).probs
        want = (np.outer(v1, v2) / np.outer(v1, v2).sum()).ravel()
        assert np.max(np.abs(got - want)) < 1e-9

    def test_misaligned_constraints_rejected(self):
        g1 = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(3))
        g2 = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(2))
        with pytest.raises(ConstraintsMisaligned):
            _multiply(lifted(g1), lifted(g2))

    def test_pairing_check_matches_brute_force_join(self):
        rng = np.random.default_rng(5)
        accepted = rejected = 0
        for _ in range(3000):
            g1, g2 = random_factor(rng, "A"), random_factor(rng, "B")
            join, one_to_one = reference_join(g1.constraint, g2.constraint)
            if not one_to_one:
                with pytest.raises(ConstraintsMisaligned):
                    _multiply(lifted(g1), lifted(g2))
                rejected += 1
                continue
            out = _multiply(lifted(g1), lifted(g2))
            assert out.constraint == join
            assert out.args == g1.table.args + g2.table.args
            want = np.multiply.outer(g1.table.as_array(), g2.table.as_array())
            assert np.allclose(np.exp(out.logtab), want, rtol=1e-12)
            accepted += 1
        assert accepted > 500 and rejected > 500

    def test_zero_ary_against_group_rejected(self):
        g0 = Parfactor(PotentialTable((EPID,), [3, 1]), Constraint.extensional((), [()]))
        g1 = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(3))
        with pytest.raises(ConstraintsMisaligned):
            _multiply(lifted(g0), lifted(g1))


class TestLiftSumOut:
    def test_treatment_exponent_two(self, rng):
        v = rng.uniform(0.1, 2, 8)
        g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), v), c_xt(3, 2))
        out, n = _sum_out(lifted(g2), TREAT)
        assert n == 2 and out.constraint == c_x(3)
        want = v.reshape(2, 2, 2).sum(axis=2) ** 2
        assert np.allclose(np.exp(out.logtab), want, rtol=1e-9)

    def test_travel_exponent_one(self, rng):
        v = rng.uniform(0.1, 2, 8)
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), v), c_x(3))
        out, n = _sum_out(lifted(g1), TRAVEL)
        assert n == 1 and out.constraint == c_x(3)
        assert np.allclose(np.exp(out.logtab), v.reshape(2, 2, 2).sum(axis=2), rtol=1e-9)

    def test_person_exponent_three(self):
        # potentials (epid, sick): tt->2, tf->1, ft->1, ff->3
        g12 = Parfactor(PotentialTable((EPID, SICK), [3, 1, 1, 2]), c_x(3))
        out, n = _sum_out(lifted(g12), SICK)
        assert n == 3 and out.constraint.tuples == ((),)
        assert np.allclose(np.exp(out.logtab), [64.0, 27.0], rtol=1e-9)

    def test_ragged_constraint_rejected(self):
        a, b = xs(2)
        t1, t2 = ts(2)
        c = Constraint.extensional((X, T), [(a, t1), (a, t2), (b, t1)])
        g = Parfactor(PotentialTable((EPID, SICK, TREAT), np.arange(1, 9)), c)
        with pytest.raises(NotCountNormalized):
            _sum_out(lifted(g), TREAT)

    def test_absent_argument_rejected(self):
        g = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(2))
        with pytest.raises(ValidationError):
            _sum_out(lifted(g), TREAT)

    def test_shared_instances_need_grounding(self):
        # summing out Sick while Treat keeps X: each Sick(x) sits in two groundings
        g = Parfactor(PotentialTable((SICK, TREAT), np.arange(1, 5)), c_xt(2, 2))
        with pytest.raises(NotCountNormalized):
            _sum_out(lifted(g), SICK)

    def test_sum_out_commutes_with_grounding(self, rng):
        for d in (1, 2, 3, 4):
            v = rng.uniform(0.1, 2, 8)
            g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), v), c_xt(d, 2))
            out, _ = _sum_out(lifted(g2), TREAT)
            summed = Parfactor(PotentialTable(out.args, np.exp(out.logtab).ravel()), out.constraint)
            lifted_then_ground = ground(summed)
            ranges = {}
            for f in ground(g2):
                for a, arg in zip(f.atoms, f.table.args):
                    ranges[a] = list(arg.range)
            keep = sorted(a for a in ranges if a.name != "Treat")
            want = unnormalized_table(ground(g2), keep, ranges)
            got = unnormalized_table(lifted_then_ground, keep, ranges)
            assert np.allclose(got, want, rtol=1e-9)


class TestSplit:
    @staticmethod
    def on_x(*names):
        """The group of the ``X`` instances named, in the engine's block form."""
        return frozenset({(frozenset(Constant(n) for n in names),)})

    def test_partition_sizes(self):
        part, rest = _split(c_x(3), (X,), self.on_x("x3"))
        assert part.size == 1 and rest.size == 2

    def test_disjoint_constants(self):
        part, rest = _split(c_x(3), (X,), self.on_x("zz"))
        assert part.size == 0
        assert rest == c_x(3)

    def test_parts_partition_the_groundings(self):
        args = (EPID, SICK, TREAT)
        part, rest = _split(c_xt(3, 2), (X,), self.on_x("x1"))
        merged = sorted(list(_groundings(args, part)) + list(_groundings(args, rest)))
        assert merged == sorted(_groundings(args, c_xt(3, 2)))


class TestAbsorb:
    def test_slice_at_observed_value(self):
        g1 = Parfactor(
            PotentialTable((EPID, SICK, TRAVEL), np.arange(1.0, 9.0)),
            Constraint.extensional((X,), [(Constant("eve"),)]),
        )
        out = _absorb(lifted(g1), {atom("Sick", "eve"): "true"})
        assert out.args == (EPID, TRAVEL)
        assert np.allclose(np.exp(out.logtab).ravel(), [3, 4, 7, 8])
        assert out.constraint == g1.constraint

    def test_unrelated_evidence_is_ignored(self):
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), np.arange(1, 9)), c_x(2))
        lf = lifted(g1)
        assert _absorb(lf, {atom("Cough", "x1"): "true"}) is lf

    def test_partial_observation_rejected(self):
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), np.arange(1, 9)), c_x(2))
        with pytest.raises(InferenceError, match="shatter"):
            _absorb(lifted(g1), {atom("Sick", "x1"): "true"})

    def test_conditional_query_matches_oracle(self, rng):
        m = epidemic_model(3, 2, rng)
        q = QuerySpec((atom("Epid"),), Evidence(((atom("Sick", "x3"), "true"),)))
        got = lifted_query(m, q)
        want = joint_enumeration(m, (atom("Epid"),), [(atom("Sick", "x3"), "true")])
        assert np.max(np.abs(got.probs - want)) < 1e-9

    def test_whole_group_absorption_raises_slice_to_group_size(self, rng):
        # dropping the only argument over X leaves the slice standing in for
        # every grounding at once; checked against the enumeration oracle
        v = rng.uniform(0.1, 2, 4)
        g = Parfactor(PotentialTable((EPID, SICK), v), c_x(2))
        ev = Evidence(((atom("Sick", "x1"), "true"), (atom("Sick", "x2"), "true")))
        out = _absorb(lifted(g), dict(ev.assignments))
        assert out.args == (EPID,)
        assert out.constraint.tuples == ((),)
        want = v.reshape(2, 2)[:, 1] ** 2
        assert np.allclose(np.exp(out.logtab), want, rtol=1e-12)
        m = ParameterisedModel((g,))
        marginal = ground_ve(m, QuerySpec((atom("Epid"),), ev))
        assert np.allclose(marginal.probs, want / want.sum(), atol=1e-12)


def test_operators_carry_the_groups_they_keep():
    # multiply, sum-out and absorb hand their inputs' groups on; each must
    # equal the group computed from the constraint's listed tuples, both as
    # an instance set and in its block form. Two factors named "A" share an
    # argument when their logvars agree.
    rng = np.random.default_rng(11)
    made = 0

    def check(lf):
        nonlocal made
        tuples = lf.constraint.tuples
        for arg, group in zip(lf.args, lf.groups):
            pos = [lf.constraint.position(lv) for lv in arg.params]
            want = {tuple(t[i] for i in pos) for t in tuples}
            assert group_instances(group) == want
            assert group == frozenset(_decompose(want))
        made += 1

    for _ in range(1000):
        a = lifted(random_factor(rng, "A"))
        try:
            b = lifted(random_factor(rng, str(rng.choice(["A", "B"]))))
            factors = [a, _multiply(a, b)]
            check(factors[1])
        except ConstraintsMisaligned:
            factors = [a]
        for lf in factors:
            for prv in lf.args:
                try:
                    check(_sum_out(lf, prv)[0])
                except NotCountNormalized:
                    pass
            prv, group = lf.args[-1], lf.groups[-1]
            value = str(rng.choice(["false", "true"]))
            observed = {GroundAtom(prv.name, i): value for i in group_instances(group)}
            try:
                check(_absorb(lf, observed))
            except NotCountNormalized:
                pass
    assert made > 2000


class TestLiftedQuery:
    def test_matches_ground_ve_on_example_shape(self, rng):
        m = epidemic_model(3, 2, rng)
        q = QuerySpec((atom("Epid"),))
        assert np.max(np.abs(lifted_query(m, q).probs - ground_ve(m, q).probs)) < 1e-9

    def test_single_parameterless_parfactor(self):
        m = ParameterisedModel(
            (Parfactor(PotentialTable((EPID,), [1, 3]), Constraint.extensional((), [()])),)
        )
        assert np.allclose(lifted_query(m, QuerySpec((atom("Epid"),))).probs, [0.25, 0.75])

    def test_person_marginal_across_domain_sizes(self, rng):
        for d in range(2, 7):
            m = epidemic_model(d, 2, rng)
            q = QuerySpec((atom("Sick", "x1"),))
            got = lifted_query(m, q).probs
            want = ground_ve(m, q).probs
            assert np.max(np.abs(got - want)) < 1e-9

    def test_interchangeable_persons_get_identical_marginals(self, rng):
        m = epidemic_model(4, 2, rng)
        probs = [
            lifted_query(m, QuerySpec((atom("Sick", f"x{i + 1}"),))).probs for i in range(4)
        ]
        for p in probs[1:]:
            assert np.allclose(p, probs[0], atol=1e-12)

    def test_overlapping_groups_are_refined(self, rng):
        # g2 covers only two of the three persons
        v0, v1, v2 = rng.uniform(0.1, 2, 2), rng.uniform(0.1, 2, 8), rng.uniform(0.1, 2, 8)
        g0 = Parfactor(PotentialTable((EPID,), v0), Constraint.extensional((), [()]))
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), v1), c_x(3))
        g2 = Parfactor(
            PotentialTable((EPID, SICK, TREAT), v2),
            Constraint.extensional((X, T), [(x, t) for x in xs(2) for t in ts(2)]),
        )
        m = ParameterisedModel((g0, g1, g2))
        for target in (atom("Epid"), atom("Sick", "x3"), atom("Sick", "x1")):
            q = QuerySpec((target,))
            assert np.max(np.abs(lifted_query(m, q).probs - ground_ve(m, q).probs)) < 1e-9

    def test_ragged_constraint_falls_back_to_grounding(self, rng):
        a, b = xs(2)
        t1, t2 = ts(2)
        m = ragged_model([(a, t1), (a, t2), (b, t1)], rng)
        q = QuerySpec((atom("Epid"),))
        log = []
        got = lifted_query(m, q, op_log=log)
        assert any(r.kind == "ground" for r in log)
        assert np.max(np.abs(got.probs - ground_ve(m, q).probs)) < 1e-9

    def test_multi_target_query(self, rng):
        m = epidemic_model(3, 2, rng)
        q = QuerySpec((atom("Sick", "x1"), atom("Travel", "x2")))
        got = lifted_query(m, q)
        want = ground_ve(m, q)
        assert got.probs.shape == (4,)
        assert np.max(np.abs(got.probs - want.probs)) < 1e-9

    def test_prob_reads_the_joint_and_rejects_a_wrong_length(self, rng):
        m = epidemic_model(3, 2, rng)
        got = lifted_query(m, QuerySpec((atom("Sick", "x1"), atom("Travel", "x2"))))
        assert got.prob(("true", "false")) == float(got.probs[2])
        for wrong in (("true",), ("true", "false", "true")):
            with pytest.raises(ValidationError):
                got.prob(wrong)

    def test_ragged_models_with_evidence_match_ground_ve(self, rng):
        # every person gets its own non-empty treatment subset, so Treat is
        # ragged; evidence and shattering then mix lifted and ground groups
        grounded = 0
        for _ in range(200):
            persons, treatments = xs(int(rng.integers(2, 5))), ts(int(rng.integers(2, 4)))
            pairs = []
            for x in persons:
                subset = int(rng.integers(1, 2 ** len(treatments)))
                pairs.extend((x, t) for b, t in enumerate(treatments) if subset >> b & 1)
            m = ragged_model(pairs, rng)
            atoms = all_atoms(m)
            drawn = rng.choice(len(atoms), int(rng.integers(1, 4)), replace=False)
            picked = [atoms[i] for i in drawn]
            evidence = Evidence(tuple((a, str(rng.choice(["false", "true"]))) for a in picked[1:]))
            q = QuerySpec((picked[0],), evidence)
            log = []
            got = lifted_query(m, q, op_log=log)
            assert np.max(np.abs(got.probs - ground_ve(m, q).probs)) < 1e-9
            grounded += any(r.kind == "ground" for r in log)
        assert 0 < grounded < 200

    def test_ragged_fallback_grounds_per_group_not_per_person(self, rng):
        # the ragged-query benchmark's shape: every other person also gets t2,
        # so x1 has one treatment and the observed x2 has two
        t1, t2 = ts(2)
        q = QuerySpec((atom("Sick", "x1"),), Evidence(((atom("Travel", "x2"), "true"),)))
        grounded = []
        for n in (50, 150):
            pairs = [(x, t) for i, x in enumerate(xs(n)) for t in ((t1, t2) if i % 2 else (t1,))]
            m = ragged_model(pairs, rng)
            log = []
            got = lifted_query(m, q, op_log=log)
            grounded.append(sum(r.kind == "ground" for r in log))
        assert grounded[0] == grounded[1] > 0
        assert np.max(np.abs(got.probs - ground_ve(m, q).probs)) < 1e-9

    def test_operation_log_records_exponents(self):
        m = epidemic_model(3, 2)
        log = []
        lifted_query(m, QuerySpec((atom("Epid"),)), op_log=log)
        exponents = {r.detail: r.exponent for r in log if r.kind == "sum_out"}
        assert exponents == {"Treat": 2, "Travel": 1, "Sick": 3}

    def test_operation_count_constant_in_domain_size(self):
        counts = []
        for d in (10, 100, 1000):
            log = []
            lifted_query(epidemic_model(d, 2), QuerySpec((atom("Epid"),)), op_log=log)
            counts.append(len(log))
        assert counts[0] == counts[1] == counts[2]

    def test_huge_exponents_stay_finite(self):
        m = epidemic_model(1000, 2)
        probs = lifted_query(m, QuerySpec((atom("Epid"),))).probs
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1) < 1e-9

    def test_evidence_on_pair_argument(self, rng):
        m = epidemic_model(3, 2, rng)
        q = QuerySpec((atom("Epid"),), Evidence(((atom("Treat", "x1", "t1"), "true"),)))
        got = lifted_query(m, q)
        want = ground_ve(m, q)
        assert np.max(np.abs(got.probs - want.probs)) < 1e-9

    @pytest.mark.parametrize("answer", [ground_ve, lifted_query])
    @pytest.mark.parametrize("target", ["Epid", "Sick(a)"])
    def test_aliased_arguments_rejected(self, answer, target):
        # Sick(X), Sick(Y) under (a, a) puts the atom Sick(a) twice in one grounding
        y, a = Logvar("Y"), Constant("a")
        aliased = PotentialTable((SICK, PRV("Sick", (y,))), [1, 2, 3, 4])
        m = ParameterisedModel(
            (
                Parfactor(aliased, Constraint.extensional((X, y), [(a, a)])),
                Parfactor(PotentialTable((EPID, SICK), [4, 2, 1, 3]), Constraint.extensional((X,), [(a,)])),
            )
        )
        q = QuerySpec((GroundAtom(target) if target == "Epid" else atom("Sick", "a"),))
        with pytest.raises(InferenceError, match="aliased arguments"):
            answer(m, q)

    def test_target_in_evidence_rejected(self):
        with pytest.raises(ValidationError):
            QuerySpec((atom("Epid"),), Evidence(((atom("Epid"), "true"),)))

    def test_contradictory_evidence_rejected(self):
        with pytest.raises(ValidationError):
            Evidence(((atom("Epid"), "true"), (atom("Epid"), "false")))

    def test_non_boolean_ranges(self, rng):
        from liftworlds import Range

        severity = Range(("none", "mild", "severe"))
        sev = PRV("Sev", (X,), severity)
        g0 = Parfactor(
            PotentialTable((EPID,), rng.uniform(0.1, 2, 2)), Constraint.extensional((), [()])
        )
        g1 = Parfactor(PotentialTable((EPID, sev), rng.uniform(0.1, 2, 6)), c_x(3))
        g2 = Parfactor(PotentialTable((sev, TREAT), rng.uniform(0.1, 2, 6)), c_xt(3, 2))
        m = ParameterisedModel((g0, g1, g2))
        q = QuerySpec(
            (atom("Sev", "x1"),), Evidence(((atom("Sev", "x2"), "mild"),))
        )
        got = lifted_query(m, q)
        want = ground_ve(m, q)
        assert got.probs.shape == (3,)
        assert np.max(np.abs(got.probs - want.probs)) < 1e-9
        assert got.event_prob(atom("Sev", "x1"), "severe") == pytest.approx(
            float(got.probs[2]), rel=1e-12
        )

    def test_queries_run_concurrently(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        m = epidemic_model(4, 2, rng)
        queries = [QuerySpec((atom("Sick", f"x{i + 1}"),)) for i in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda q: lifted_query(m, q).probs, queries))
        for p in results[1:]:
            assert np.allclose(p, results[0], atol=1e-12)

    def test_zero_potentials_survive_the_lifted_path(self, rng):
        for _ in range(30):
            dx, dt = int(rng.integers(1, 4)), int(rng.integers(1, 3))

            def table(n):
                v = rng.uniform(0.1, 2.0, n)
                v[rng.random(n) < 0.25] = 0.0
                return v

            g0 = Parfactor(PotentialTable((EPID,), table(2)), Constraint.extensional((), [()]))
            g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), table(8)), c_x(dx))
            g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), table(8)), c_xt(dx, dt))
            m = ParameterisedModel((g0, g1, g2))
            q = QuerySpec((atom("Epid"),))
            try:
                got = lifted_query(m, q).probs
            except InferenceError:
                with pytest.raises(InferenceError):
                    ground_ve(m, q)
                continue
            want = ground_ve(m, q).probs
            assert np.max(np.abs(got - want)) < 1e-9


def _op_log_digest(cases) -> str:
    """SHA-256 over each case's ``lifted_query`` op records and answer ``probs`` bytes."""
    h = hashlib.sha256()
    for m, q in cases:
        log = []
        probs = lifted_query(m, q, op_log=log).probs
        h.update(repr([(r.kind, r.detail, r.exponent) for r in log]).encode())
        h.update(repr([float(p).hex() for p in probs]).encode())
    return h.hexdigest()


def test_op_logs_and_answers_are_pinned(data_dir):
    # recorded before constraints took their block form inside lifted_query:
    # the form changes how the engine reads a constraint, not what it does
    u = UniverseModel(
        io.load_model(data_dir / "model.json"),
        io.load_program(data_dir / "constraints.program"),
        io.load_domain_spec(data_dir / "domains.json"),
    )
    sick = QuerySpec((atom("Sick", "x1"),))
    bundled = [(wm.model, sick) for wm in expand(u) if wm.model is not None]
    assert len(bundled) == 60
    rng = np.random.default_rng(9)
    t1, t2, t3 = ts(3)
    shapes = [
        [(x, t) for i, x in enumerate(xs(n)) for t in ((t1, t2) if i % 2 else (t1,))]
        for n in (10, 40)
    ]
    for _ in range(40):
        treatments = (t1, t2, t3)[: int(rng.integers(2, 4))]
        pairs = []
        for x in xs(int(rng.integers(2, 7))):
            subset = int(rng.integers(1, 2 ** len(treatments)))
            pairs.extend((x, t) for b, t in enumerate(treatments) if subset >> b & 1)
        shapes.append(pairs)
    travel = QuerySpec((atom("Sick", "x1"),), Evidence(((atom("Travel", "x2"), "true"),)))
    ragged = [(ragged_model(pairs, rng), travel) for pairs in shapes]
    # Sick and Travel over more persons than Treat: same-name groups overlap
    # without being equal, so _refine splits
    rng = np.random.default_rng(9)
    refined = []
    for _ in range(20):
        persons = xs(int(rng.integers(4, 8)))
        treated = persons[:2] + [x for x in persons[2:] if rng.random() < 0.5]
        pairs = [(x, t) for x in treated for t in (t1, t2, t3)[: int(rng.integers(1, 3))]]
        g0, g1, g2 = ragged_model(pairs, rng).parfactors
        wide = Parfactor(g1.table, Constraint.extensional((X,), [(x,) for x in persons]))
        refined.append((ParameterisedModel((g0, wide, g2)), travel))
    assert _op_log_digest(bundled) == "fa75b1f98910503bd4ddd120477cd8d751a99cbf7a277c9121a767e51cde5104"
    assert _op_log_digest(ragged) == "2643768c5da58f075eb89360a8d19854e65bd57383cd8bf7c2d514d57be9e739"
    assert _op_log_digest(refined) == "2ee4d94cbeb875f8f975c2ef8db637ceb428cf80bd155032623741ff9a79fbd0"
