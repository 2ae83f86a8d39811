import collections
import hashlib
import itertools
import warnings

import numpy as np
import pytest

from liftworlds import (
    Constant,
    ConstantSet,
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
from liftworlds import engine, io
from liftworlds.engine import (
    _Plan,
    _absorb,
    _ground_factors,
    _lifted,
    _log,
    _logsumexp,
    _multiply,
    _plan,
    _run,
    _sum_out,
    _tables,
)
from liftworlds.model import _at_sizes, _count, _groundings, _holds, _split, conditional_count, project
from support import (
    EPID,
    SICK,
    T,
    TRAVEL,
    TREAT,
    X,
    all_atoms,
    decompose,
    epidemic_model,
    group_instances,
    joint_enumeration,
    ragged_model,
    reference_plan,
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


@pytest.fixture
def plan() -> _Plan:
    return _Plan((), ())


def lifted(p, plan):
    """The engine's log-space factor for a parfactor, its table recorded in ``plan``."""
    return _lifted(p.table.args, plan.tab(engine._logtable, (), p.table), p.constraint)


def table(plan, lf):
    """``lf``'s table, computed by running ``plan`` up to it."""
    plan.finish(lf.logtab)
    return _tables(plan, [plan.exponents])[0]


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
        # epidemic models, then ragged ones: each of at most 3 persons holds
        # its own non-empty subset of 2 treatments (at most 13 atoms), so
        # some persons share the oracle's ground steps and others do not
        def ragged():
            persons = xs(int(rng.integers(1, 4)))
            subsets = rng.integers(1, 4, len(persons))
            pairs = [(x, t) for x, s in zip(persons, subsets) for b, t in enumerate(ts(2)) if s >> b & 1]
            return ragged_model(pairs, rng)

        epidemic = (epidemic_model(int(rng.integers(1, 4)), int(rng.integers(1, 3)), rng) for _ in range(20))
        for m in itertools.chain(epidemic, (ragged() for _ in range(20))):
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
    def test_identical_constraints_multiply_pointwise(self, rng, plan):
        v1, v2 = rng.uniform(0.1, 2, 4), rng.uniform(0.1, 2, 4)
        g1 = Parfactor(PotentialTable((EPID, SICK), v1), c_x(3))
        g2 = Parfactor(PotentialTable((EPID, SICK), v2), c_x(3))
        out = _multiply(lifted(g1, plan), lifted(g2, plan), plan)
        assert out.constraint == c_x(3)
        assert np.allclose(np.exp(table(plan, out)).ravel(), v1 * v2, rtol=1e-12)

    def test_table_of_ones_is_identity(self, rng, plan):
        v = rng.uniform(0.1, 2, 4)
        g1 = Parfactor(PotentialTable((EPID, SICK), v), c_x(2))
        g2 = Parfactor(PotentialTable((EPID, SICK), np.ones(4)), c_x(2))
        out = _multiply(lifted(g1, plan), lifted(g2, plan), plan)
        assert np.allclose(np.exp(table(plan, out)).ravel(), v, rtol=1e-12)

    def test_disjoint_arguments_outer_product(self, rng, plan):
        # singleton groups over unrelated logvars; checked against ground_ve
        y = Logvar("Y")
        travel_y = PRV("Travel", (y,))
        v1, v2 = rng.uniform(0.1, 2, 2), rng.uniform(0.1, 2, 2)
        g1 = Parfactor(PotentialTable((SICK,), v1), c_x(1))
        g2 = Parfactor(
            PotentialTable((travel_y,), v2),
            Constraint.extensional((y,), [(Constant("x2"),)]),
        )
        out = _multiply(lifted(g1, plan), lifted(g2, plan), plan)
        assert np.allclose(np.exp(table(plan, out)), np.outer(v1, v2), rtol=1e-12)
        m = ParameterisedModel((g1, g2))
        q = QuerySpec((atom("Sick", "x1"), atom("Travel", "x2")))
        got = ground_ve(m, q).probs
        want = (np.outer(v1, v2) / np.outer(v1, v2).sum()).ravel()
        assert np.max(np.abs(got - want)) < 1e-9

    def test_misaligned_constraints_rejected(self, plan):
        g1 = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(3))
        g2 = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(2))
        with pytest.raises(ConstraintsMisaligned):
            _multiply(lifted(g1, plan), lifted(g2, plan), plan)

    def test_pairing_check_matches_brute_force_join(self):
        rng = np.random.default_rng(5)
        accepted = rejected = 0
        for _ in range(3000):
            g1, g2 = random_factor(rng, "A"), random_factor(rng, "B")
            join, one_to_one = reference_join(g1.constraint, g2.constraint)
            plan = _Plan((), ())
            if not one_to_one:
                with pytest.raises(ConstraintsMisaligned):
                    _multiply(lifted(g1, plan), lifted(g2, plan), plan)
                rejected += 1
                continue
            out = _multiply(lifted(g1, plan), lifted(g2, plan), plan)
            assert out.constraint == join
            assert out.args == g1.table.args + g2.table.args
            want = np.multiply.outer(g1.table.as_array(), g2.table.as_array())
            assert np.allclose(np.exp(table(plan, out)), want, rtol=1e-12)
            accepted += 1
        assert accepted > 500 and rejected > 500

    def test_zero_ary_against_group_rejected(self, plan):
        g0 = Parfactor(PotentialTable((EPID,), [3, 1]), Constraint.extensional((), [()]))
        g1 = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(3))
        with pytest.raises(ConstraintsMisaligned):
            _multiply(lifted(g0, plan), lifted(g1, plan), plan)


class TestLiftSumOut:
    def test_treatment_exponent_two(self, rng, plan):
        v = rng.uniform(0.1, 2, 8)
        g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), v), c_xt(3, 2))
        out, n = _sum_out(lifted(g2, plan), TREAT, plan)
        assert n == 2 and out.constraint == c_x(3)
        want = v.reshape(2, 2, 2).sum(axis=2) ** 2
        assert np.allclose(np.exp(table(plan, out)), want, rtol=1e-9)

    def test_travel_exponent_one(self, rng, plan):
        v = rng.uniform(0.1, 2, 8)
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), v), c_x(3))
        out, n = _sum_out(lifted(g1, plan), TRAVEL, plan)
        assert n == 1 and out.constraint == c_x(3)
        assert np.allclose(np.exp(table(plan, out)), v.reshape(2, 2, 2).sum(axis=2), rtol=1e-9)

    def test_person_exponent_three(self, plan):
        # potentials (epid, sick): tt->2, tf->1, ft->1, ff->3
        g12 = Parfactor(PotentialTable((EPID, SICK), [3, 1, 1, 2]), c_x(3))
        out, n = _sum_out(lifted(g12, plan), SICK, plan)
        assert n == 3 and out.constraint.tuples == ((),)
        assert np.allclose(np.exp(table(plan, out)), [64.0, 27.0], rtol=1e-9)

    def test_ragged_constraint_rejected(self, plan):
        a, b = xs(2)
        t1, t2 = ts(2)
        c = Constraint.extensional((X, T), [(a, t1), (a, t2), (b, t1)])
        g = Parfactor(PotentialTable((EPID, SICK, TREAT), np.arange(1, 9)), c)
        with pytest.raises(NotCountNormalized):
            _sum_out(lifted(g, plan), TREAT, plan)

    def test_absent_argument_rejected(self, plan):
        g = Parfactor(PotentialTable((EPID, SICK), np.arange(1, 5)), c_x(2))
        with pytest.raises(ValidationError):
            _sum_out(lifted(g, plan), TREAT, plan)

    def test_shared_instances_need_grounding(self, plan):
        # summing out Sick while Treat keeps X: each Sick(x) sits in two groundings
        g = Parfactor(PotentialTable((SICK, TREAT), np.arange(1, 5)), c_xt(2, 2))
        with pytest.raises(NotCountNormalized):
            _sum_out(lifted(g, plan), SICK, plan)

    def test_sum_out_commutes_with_grounding(self, rng):
        for d in (1, 2, 3, 4):
            v = rng.uniform(0.1, 2, 8)
            g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), v), c_xt(d, 2))
            plan = _Plan((), ())
            out, _ = _sum_out(lifted(g2, plan), TREAT, plan)
            summed = Parfactor(PotentialTable(out.args, np.exp(table(plan, out)).ravel()), out.constraint)
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
        return frozenset({(ConstantSet(names),)})

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
    def test_slice_at_observed_value(self, plan):
        g1 = Parfactor(
            PotentialTable((EPID, SICK, TRAVEL), np.arange(1.0, 9.0)),
            Constraint.extensional((X,), [(Constant("eve"),)]),
        )
        out = _absorb(lifted(g1, plan), {atom("Sick", "eve"): "true"}, plan)
        assert out.args == (EPID, TRAVEL)
        assert np.allclose(np.exp(table(plan, out)).ravel(), [3, 4, 7, 8])
        assert out.constraint == g1.constraint

    def test_unrelated_evidence_is_ignored(self, plan):
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), np.arange(1, 9)), c_x(2))
        lf = lifted(g1, plan)
        assert _absorb(lf, {atom("Cough", "x1"): "true"}, plan) is lf

    def test_partial_observation_rejected(self, plan):
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), np.arange(1, 9)), c_x(2))
        with pytest.raises(InferenceError, match="shatter"):
            _absorb(lifted(g1, plan), {atom("Sick", "x1"): "true"}, plan)

    def test_conditional_query_matches_oracle(self, rng):
        m = epidemic_model(3, 2, rng)
        q = QuerySpec((atom("Epid"),), Evidence(((atom("Sick", "x3"), "true"),)))
        got = lifted_query(m, q)
        want = joint_enumeration(m, (atom("Epid"),), [(atom("Sick", "x3"), "true")])
        assert np.max(np.abs(got.probs - want)) < 1e-9

    def test_whole_group_absorption_raises_slice_to_group_size(self, rng, plan):
        # dropping the only argument over X leaves the slice standing in for
        # every grounding at once; checked against the enumeration oracle
        v = rng.uniform(0.1, 2, 4)
        g = Parfactor(PotentialTable((EPID, SICK), v), c_x(2))
        ev = Evidence(((atom("Sick", "x1"), "true"), (atom("Sick", "x2"), "true")))
        out = _absorb(lifted(g, plan), dict(ev.assignments), plan)
        assert out.args == (EPID,)
        assert out.constraint.tuples == ((),)
        want = v.reshape(2, 2)[:, 1] ** 2
        assert np.allclose(np.exp(table(plan, out)), want, rtol=1e-12)
        m = ParameterisedModel((g,))
        marginal = ground_ve(m, QuerySpec((atom("Epid"),), ev))
        assert np.allclose(marginal.probs, want / want.sum(), atol=1e-12)


def test_each_recorded_check_tells_the_sizes_that_change_it():
    # a plan records the join pairing, the sum-out count check and the
    # equal-weights test behind each exponent; _at_sizes gives each check's
    # sign at other region sizes, and each exponent
    def at(plan, regions, rows):
        signs, exponents = _at_sizes(plan, regions, rows)
        return [list(r) for r in signs], [list(r) for r in exponents]

    persons, one, two = ConstantSet(xs(3)), ConstantSet(["t1"]), ConstantSet(["t2", "t3"])
    logtab = 0  # a factor's table is a step; these plans are never run
    # the join pairs Sick's persons with Treat's one to one only while each has one treatment
    plan = _Plan((), ())
    _multiply(
        _lifted((EPID, SICK), logtab, Constraint((X,), ((persons,),))),
        _lifted((SICK, TREAT), logtab, Constraint((X, T), ((persons, one),))),
        plan,
    )
    signs, _ = at(plan, [persons, one], [(3, 1), (5, 1), (3, 2)])
    assert signs[0] == signs[1] != signs[2]
    # summing Sick out of persons x treatments counts its instances once only with one treatment
    plan = _Plan((), ())
    _sum_out(_lifted((SICK, TREAT), logtab, Constraint((X, T), ((persons, one),))), SICK, plan)
    signs, exponents = at(plan, [persons, one], [(3, 1), (5, 1), (3, 2)])
    assert signs[0] == signs[1] != signs[2] and exponents[:2] == [[1], [1]]
    # x1 and x2 extend to as many Treat groundings each only while their
    # treatment sets are as large, and that count is the exponent
    plan = _Plan((), ())
    x1, x2, other = ConstantSet(["x1"]), ConstantSet(["x2"]), ConstantSet(["t1", "t4"])
    ragged = Constraint((X, T), ((x1, other), (x2, two)))
    _sum_out(_lifted((SICK, TREAT), logtab, ragged), TREAT, plan)
    signs, exponents = at(plan, [x1, x2, other, two], [(1, 1, 2, 2), (1, 1, 3, 3), (1, 1, 2, 3)])
    assert signs[0] == signs[1] != signs[2] and exponents[:2] == [[2], [3]]


def test_an_exponent_past_int64_still_answers():
    # summing S(X,Y,Z) out over three runs of 10^7 persons raises its table
    # to 10^21, past any int64; exponents only scale log tables, as floats
    xyz = tuple(Logvar(n) for n in "XYZ")
    e, s = PRV("E"), PRV("S", xyz)

    def cube(n):
        persons = ConstantSet(runs=((1, n),))
        table = PotentialTable((e, s), (2.0, 1.0, 1.0, 1.0))
        return ParameterisedModel((Parfactor(table, Constraint(xyz, ((persons,) * 3,))),))

    q = QuerySpec((atom("E"),))
    log = []
    assert lifted_query(cube(10**7), q, op_log=log).probs.tolist() == [1.0, 0.0]
    assert [r.exponent for r in log if r.kind == "sum_out"] == [10**21]
    small = cube(3)
    assert np.max(np.abs(lifted_query(small, q).probs - ground_ve(small, q).probs)) < 1e-9


def _assert_memo_is_exact(plan):
    # every step reads only earlier steps, and every memo entry names a
    # recorded step equal to its key
    for i, (fn, refs, params) in enumerate(plan.steps):
        assert all(r < i for r in refs)
    for key, i in plan.memo.items():
        assert i < len(plan.steps) and plan.steps[i] == key


def test_plan_records_each_distinct_step_once():
    # phase 2 grounds each person of a ragged Treat group, and another
    # person's factors over the same tables are the same steps; the product
    # of all holders of an atom is one step, whatever their number, so a
    # plan's step count does not grow with the persons: only a new treatment
    # set, a new kind of person, may add a step
    q = QuerySpec((atom("Sick", "x1"),), Evidence(((atom("Travel", "x2"), "true"),)))
    rng = np.random.default_rng(4)
    t1, t2, t3 = ts(3)
    alternating = [[t1, t2] if i % 2 else [t1] for i in range(60)]
    drawn = [[t for b, t in enumerate((t1, t2, t3)) if s >> b & 1] for s in rng.integers(1, 8, 60)]
    for treatments in (alternating, drawn):
        steps = []
        sets = [len({tuple(held) for held in treatments[:n]}) for n in (20, 60)]
        for n in (20, 60):
            m = ragged_model([(x, t) for x, held in zip(xs(n), treatments) for t in held], rng)
            log = []
            plan = _plan(m, q, log)
            assert any(r.kind == "ground" for r in log)
            _assert_memo_is_exact(plan)
            steps.append(len(plan.steps))
            got = _run(plan, [plan.exponents])[0].probs
            assert np.max(np.abs(got - ground_ve(m, q).probs)) < 1e-9
        if treatments is alternating:
            assert steps[1] == steps[0]
        assert steps[1] - steps[0] <= sets[1] - sets[0]


def _chain_of_binary_products(factors, tabs):
    """The product of ``factors``, each ``(keys, table index)``, as binary products in turn.

    Each step aligns the product so far and the next table over the axes of
    both, the product's first and then the next table's keys it lacks, and
    adds the two.
    """
    (keys, k), *rest = factors
    keys, out = list(keys), tabs[k]
    for f_keys, k in rest:
        src, new = [], []
        for x in f_keys:
            if x in keys:
                src.append(keys.index(x))
            else:
                src.append(len(keys) + len(new))
                new.append(x)
        n = len(keys) + len(new)
        out = engine._aligned(out, tuple(range(len(keys))), n) + engine._aligned(tabs[k], tuple(src), n)
        keys += new
    return keys, out


def test_product_step_adds_as_a_chain_of_binary_products():
    # seeded operands over six atoms: log tables with zero potentials (-inf
    # cells), some with a world axis of 3, drawn with repeats from a small
    # pool, each laying out its atoms in its own order. The one product step
    # lays the axes out as the chain does and every cell holds the same bits
    rng = np.random.default_rng(32)
    sizes = [2, 3, 2, 4, 2, 3]
    seen = dict.fromkeys(("-inf", "repeated", "new axes", "worlds"), 0)
    for _ in range(300):
        pool = []
        for _ in range(rng.integers(1, 4)):
            keys = tuple(int(x) for x in rng.permutation(6)[: rng.integers(0, 4)])
            shape = (int(rng.choice((1, 3))),) + tuple(sizes[x] for x in keys)
            values = rng.uniform(0, 1, shape) * (rng.uniform(0, 1, shape) > 0.2)
            pool.append((keys, _log(values)))
        picks = [int(i) for i in rng.integers(0, len(pool), rng.integers(2, 7))]
        factors = [(pool[i][0], tuple(sizes[x] for x in pool[i][0]), i) for i in picks]
        plan = _Plan((), ())
        for i in range(len(pool)):
            plan.tab(None, (), i)  # a stand-in step per pool table
        keys, data, step = engine._ground_product(factors, plan)
        fn, refs, params = plan.steps[step]
        got = fn(*(pool[r][1] for r in refs), *params)
        want_keys, want = _chain_of_binary_products([(f[0], f[2]) for f in factors], [t for _, t in pool])
        assert list(keys) == want_keys and data == tuple(sizes[x] for x in keys)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        seen["-inf"] += bool(np.isneginf(got).any())
        seen["repeated"] += len(set(picks)) < len(picks)
        seen["new axes"] += any(set(f[0]) - set(factors[0][0]) for f in factors[1:])
        seen["worlds"] += got.shape[0] > 1
    assert min(seen.values()) > 30, seen


def test_a_stuck_group_leaves_no_memo_entry_behind(monkeypatch):
    # Dose is summed out first, then Treat's two factors are multiplied (a
    # recorded step) before its ragged sum-out fails: the group's steps are
    # dropped, and so must be their memo entries, or a later equal step
    # would read another step's table
    q = QuerySpec((atom("Sick", "x1"),), Evidence(((atom("Travel", "x2"), "true"),)))
    rng = np.random.default_rng(5)
    t1, t2 = ts(2)
    dropped = []
    drop = _Plan.drop
    monkeypatch.setattr(
        _Plan, "drop", lambda plan, mark: dropped.append(len(plan.steps) - mark) or drop(plan, mark)
    )
    for n in (4, 8, 13):
        pairs = [(x, t) for i, x in enumerate(xs(n)) for t in ((t1, t2) if i % 2 else (t1,))]
        g0, g1, g2 = ragged_model(pairs, rng).parfactors
        dose = PotentialTable((TREAT, PRV("Dose", (X, T))), rng.uniform(0.5, 2, 4))
        m = ParameterisedModel((g0, g1, g2, Parfactor(dose, g2.constraint)))
        dropped.clear()
        plan = _plan(m, q)
        assert max(dropped) > 0
        _assert_memo_is_exact(plan)
        got = _run(plan, [plan.exponents])[0].probs
        assert np.max(np.abs(got - ground_ve(m, q).probs)) < 1e-9


def test_phase_one_tries_each_unit_once_and_never_a_target(monkeypatch):
    # phase 1 tries a unit (a name and a group) by multiplying its factors
    # into one product and summing the unit out; a unit whose multiply or
    # sum-out fails is stuck and recorded once as a ground op, never tried
    # again. A try starts at a multiply or sum-out whose first input is not
    # the product so far; its unit is held by all its factors, and is the
    # summed-out one, or, when a multiply fails, the one its ground op names.
    # No unit may be tried twice, nor any that holds a target instance
    tries: list[set] = []
    product = None

    def units(lf):
        return {(a.name, g) for a, g in zip(lf.args, lf.groups)}

    def start(lf):
        if lf is not product:
            tries.append(units(lf))

    def multiply(a, b, plan):
        nonlocal product
        start(a)
        tries[-1] &= units(b)
        product = None
        product = _multiply(a, b, plan)
        return product

    def sum_out(lf, prv, plan):
        nonlocal product
        start(lf)
        tries[-1] = {(prv.name, lf.groups[lf.args.index(prv)])}
        product = None
        return _sum_out(lf, prv, plan)

    monkeypatch.setattr(engine, "_multiply", multiply)
    monkeypatch.setattr(engine, "_sum_out", sum_out)
    rng = np.random.default_rng(9)
    t1, t2, t3 = ts(3)
    shapes = []
    for n in (4, 7, 12):
        drawn = [[t for b, t in enumerate((t1, t2, t3)) if s >> b & 1] for s in rng.integers(1, 8, n)]
        pairs = [(x, t) for x, held in zip(xs(n), [[t1], [t1, t2]] + drawn[2:]) for t in held]
        g0, g1, g2 = ragged_model(pairs, rng).parfactors
        dose = PotentialTable((TREAT, PRV("Dose", (X, T))), rng.uniform(0.5, 2, 4))
        shapes.append(ParameterisedModel((g0, g1, g2, Parfactor(dose, g2.constraint))))
        shapes.append(epidemic_model(n, 2, rng))
    queries = [
        QuerySpec((atom("Sick", "x1"),), Evidence(((atom("Travel", "x2"), "true"),))),
        QuerySpec((atom("Epid"), atom("Treat", "x2", "t1")), Evidence(((atom("Sick", "x1"), "false"),))),
        QuerySpec((atom("Travel", "x1"),), Evidence(((atom("Sick", "x2"), "true"), (atom("Travel", "x3"), "false")))),
    ]
    stuck = 0
    for m, q in itertools.product(shapes, queries):
        tries.clear()
        log = []
        _plan(m, q, log)
        # phase 1 ends each try with a sum_out record named by the unit's name
        # or a ground record; phase 2's records name an atom after "ground "
        ends = [
            r.detail.split(":")[0]
            for r in log
            if r.kind == "ground" or (r.kind == "sum_out" and not r.detail.startswith("ground "))
        ]
        assert len(ends) == len(tries)
        tried = []
        for held, name in zip(tries, ends):
            (unit,) = [u for u in held if u[0] == name]
            tried.append(unit)
        assert len(set(tried)) == len(tried)
        for name, group in tried:
            assert not any(t.name == name and _holds(group, t.args) for t in q.targets)
        stuck += sum(r.kind == "ground" for r in log)
    assert stuck > 0


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
            assert group == frozenset(decompose(want))
        made += 1

    for _ in range(1000):
        plan = _Plan((), ())
        a = lifted(random_factor(rng, "A"), plan)
        try:
            b = lifted(random_factor(rng, str(rng.choice(["A", "B"]))), plan)
            factors = [a, _multiply(a, b, plan)]
            check(factors[1])
        except ConstraintsMisaligned:
            factors = [a]
        for lf in factors:
            for prv in lf.args:
                try:
                    check(_sum_out(lf, prv, plan)[0])
                except NotCountNormalized:
                    pass
            prv, group = lf.args[-1], lf.groups[-1]
            value = str(rng.choice(["false", "true"]))
            observed = {GroundAtom(prv.name, i): value for i in group_instances(group)}
            try:
                check(_absorb(lf, observed, plan))
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


def _pinned_cases(data_dir):
    """The 60 bundled worlds for ``P(Sick(x1))`` and 42 seeded ragged shapes with ``Travel(x2)=true``."""
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
    return bundled, [(ragged_model(pairs, rng), travel) for pairs in shapes]


def test_op_logs_and_answers_are_pinned(data_dir):
    # recorded before constraints took their block form inside lifted_query:
    # the form changes how the engine reads a constraint, not what it does
    bundled, ragged = _pinned_cases(data_dir)
    t1, t2, t3 = ts(3)
    travel = ragged[0][1]
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


def test_ground_ve_answers_are_pinned(data_dir):
    # the oracle shares _eliminate with the lifted route's phase 2, so its
    # answer bytes on the pinned cases are pinned too
    bundled, ragged = _pinned_cases(data_dir)
    h = hashlib.sha256()
    for m, q in bundled + ragged:
        h.update(repr([float(p).hex() for p in ground_ve(m, q).probs]).encode())
    assert h.hexdigest() == "f0ba4a6f6d7d1784eedac155bdb25d1da283e94ab53c1808788cf8cd80d22fc2"


def _leaf_model(rng):
    """A seeded ``ragged_model`` plus one to three parfactors over private PRVs.

    x1 has one treatment and x2 two. Each extra parfactor holds one to three
    of Age(X,T), Bmi(X), Cold(X), Dose(X,T), Zinc(X,T), Flu(), Epid, Sick(X) and
    Treat(X,T), in drawn order, over the model's pairs, persons or its one
    empty tuple, whichever its arguments need.
    """
    t1, t2, t3 = ts(3)
    pairs = [(x, t1) for x in xs(1)] + [(x, t) for x in xs(2)[1:] for t in (t1, t2)]
    for x in xs(int(rng.integers(3, 7)))[2:]:
        held = [t for b, t in enumerate((t1, t2, t3)) if int(rng.integers(1, 8)) >> b & 1]
        pairs += [(x, t) for t in held]
    base = ragged_model(pairs, rng).parfactors
    pool = [PRV("Age", (X, T)), PRV("Bmi", (X,)), PRV("Cold", (X,)), PRV("Dose", (X, T)),
            PRV("Zinc", (X, T)), PRV("Flu"), EPID, SICK, TREAT]
    persons = [(x,) for x in dict.fromkeys(x for x, _ in pairs)]
    extra = []
    for _ in range(int(rng.integers(1, 4))):
        args = tuple(pool[i] for i in rng.choice(len(pool), int(rng.integers(1, 4)), replace=False))
        logvars = {lv for a in args for lv in a.params}
        c = (
            Constraint.extensional((X, T), pairs) if T in logvars
            else Constraint.extensional((X,), persons) if logvars
            else Constraint.extensional((), [()])
        )
        extra.append(Parfactor(PotentialTable(args, rng.uniform(0.1, 2, 2 ** len(args))), c))
    return ParameterisedModel(base + tuple(extra))


def test_summing_leaves_before_grounding_changes_no_step_record_or_bit(monkeypatch):
    # phase 2 sums each private leaf out of its lifted factor before it
    # grounds; the plan must have as many steps, log the same records and
    # answer the same bytes as grounding every factor whole and eliminating
    # atom by atom (support.reference_plan). Each model runs twice: as it
    # is, and with every lifted sum-out refused, so that phase 2 also sees
    # factors phase 1 would have reduced (two leaves in one factor, or no
    # argument but leaves)
    leaves = engine._leaves
    calls = []
    monkeypatch.setattr(engine, "_leaves", lambda lf, *rest: calls.append((lf, *rest)) or leaves(lf, *rest))

    def refused(lf, prv, plan):
        raise NotCountNormalized("refused")

    rng = np.random.default_rng(33)
    q = QuerySpec((atom("Sick", "x1"),), Evidence(((atom("Travel", "x2"), "true"),)))
    seen = dict.fromkeys(("two leaves", "all leaves", "on x1", "on x2", "held back"), 0)
    for _ in range(240):
        m = _leaf_model(rng)
        for lifting in (True, False):
            calls.clear()
            runs = []
            for planned in (engine._plan, reference_plan):
                with monkeypatch.context() as patch:
                    if not lifting:
                        patch.setattr(engine, "_sum_out", refused)
                    log = []
                    plan = planned(m, q, log)
                    if planned is engine._plan:  # a log changes no step
                        assert engine._plan(m, q).steps == plan.steps
                probs = _run(plan, [plan.exponents])[0].probs
                runs.append((len(plan.steps), [(r.kind, r.detail, r.exponent) for r in log], probs.tobytes()))
            assert runs[0] == runs[1]
            for lf, holders, target in calls:
                out = leaves(lf, holders, target)
                units = [(a.name, g) for a, g in zip(lf.args, lf.groups)]
                private = [len(holders[u]) == 1 for u in units]
                leaf = [
                    p and not target[u] and _count(u[1]) == lf.constraint.size
                    for p, u in zip(private, units)
                ]
                seen["two leaves"] += len(out) >= 2
                seen["all leaves"] += all(leaf) and bool(out)
                for x in ("x1", "x2"):
                    seen["on " + x] += any(t[:1] == (x,) for a in out for t in group_instances(lf.groups[lf.args.index(a)]))
                # a leaf left for elimination behind an argument that sorts
                # first and is in one grounding for some of its atoms
                for k, is_leaf in enumerate(leaf):
                    first = [
                        j for j, a in enumerate(lf.args)
                        if private[j] and not leaf[j] and a.name < lf.args[k].name
                        and 1 in collections.Counter(_groundings((a,), lf.constraint)).values()
                    ]
                    seen["held back"] += is_leaf and lf.args[k] not in out and bool(first)
    assert min(seen.values()) >= 20, seen


def test_phase_two_makes_no_atom_per_grounding(monkeypatch):
    # phase 2 names atoms by (name, args) keys and ids, so atom objects are
    # made for the query's atoms only: as many for 3n persons as for n
    t1, t2 = ts(2)
    q = QuerySpec((atom("Sick", "x1"),), Evidence(((atom("Travel", "x2"), "true"),)))
    made = []
    post_init = GroundAtom.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    counts = []
    for n in (20, 60):
        m = ragged_model([(x, t) for i, x in enumerate(xs(n)) for t in ((t1, t2) if i % 2 else (t1,))])
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(GroundAtom, "__post_init__", counted)
            plan = _plan(m, q)
        assert not plan.batchable  # phase 2 grounded every person
        counts.append(len(made))
    assert counts[0] == counts[1]


def test_one_id_per_atom_across_positions_and_parfactors(rng):
    # Knows(a,b) is reached at both positions of (Knows(X,Y), Knows(Y,X)) and
    # from (Smokes(X), Knows(X,Y)); ragged constraints leave groups stuck, so
    # phase 2 grounds them and interns each atom's key once, whatever
    # parfactor or position reaches it
    y = Logvar("Y")
    knows, knows_back, smokes = PRV("Knows", (X, y)), PRV("Knows", (y, X)), PRV("Smokes", (X,))
    grounded = shared = 0
    for _ in range(60):
        persons = xs(int(rng.integers(2, 5)))
        pairs = [(a, b) for a in persons for b in persons if a != b]

        def some():
            keep = rng.random(len(pairs)) < 0.6
            keep[rng.integers(len(pairs))] = True
            return [p for p, k in zip(pairs, keep) if k]

        def factor(args, logvars, tuples):
            table = PotentialTable(args, rng.uniform(0.1, 2, 2 ** len(args)))
            return Parfactor(table, Constraint.extensional(logvars, tuples))

        m = ParameterisedModel(
            (
                factor((knows, knows_back), (X, y), some()),
                factor((smokes, knows), (X, y), some()),
                factor((smokes,), (X,), [(p,) for p in persons]),
            )
        )
        ids: dict = {}
        factors = []
        reached: dict[int, set] = {}  # each id's (parfactor, position) pairs
        for j, p in enumerate(m.parfactors):
            for f in _ground_factors(p.table.args, 0, p.constraint, ids):
                factors.append(f)
                for k, i in enumerate(f[0]):
                    reached.setdefault(i, set()).add((j, k))
        keys = list(ids)
        ground = m.ground()
        assert [tuple(GroundAtom(*keys[i]) for i in f[0]) for f in factors] == [g.atoms for g in ground]
        assert len(ids) == len({a for g in ground for a in g.atoms})
        shared += any({(0, 0), (0, 1), (1, 1)} <= r for r in reached.values())

        atoms = all_atoms(m)
        drawn = rng.choice(len(atoms), int(rng.integers(1, 4)), replace=False)
        picked = [atoms[i] for i in drawn]
        evidence = Evidence(tuple((a, str(rng.choice(["false", "true"]))) for a in picked[1:]))
        q = QuerySpec((picked[0],), evidence)
        log = []
        got = lifted_query(m, q, op_log=log)
        assert np.max(np.abs(got.probs - ground_ve(m, q).probs)) < 1e-9
        grounded += any(r.kind == "ground" and r.detail.startswith("Knows") for r in log)
    assert grounded > 30 and shared > 30


def test_zero_potentials_take_logs_without_a_warning():
    # _logsumexp leaves numpy's divide warning on unless a zero can reach
    # np.log; a zero entry and an all-zero slice still give -inf, silently
    table = np.array([[0.0, 2.0], [0.0, 0.0]])
    with np.errstate(divide="ignore"):
        want = np.log(table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = _log(table)
        assert np.array_equal(logs, want)
        assert np.array_equal(_logsumexp(logs, -1), [np.log(2.0), -np.inf])
        assert np.array_equal(_logsumexp(logs, 0), [-np.inf, np.log(2.0)])
        assert np.allclose(_logsumexp(np.log(table + 1), -1), np.log([4.0, 2.0]), rtol=0, atol=1e-15)
        g0 = Parfactor(PotentialTable((EPID,), [0.0, 1.0]), Constraint.extensional((), [()]))
        g1 = Parfactor(PotentialTable((EPID, SICK), [0.0, 0.0, 1.0, 3.0]), c_x(3))
        m = ParameterisedModel((g0, g1))
        for answer in (ground_ve, lifted_query):
            assert answer(m, QuerySpec((atom("Epid"),))).probs.tolist() == [0.0, 1.0]


def test_a_factor_with_no_arguments_is_grounded_once_per_tuple():
    # evidence on every argument of Smokes(X) leaves x1's factor with no
    # arguments and a zero potential; it shares no atom with the target, yet
    # both routes must still see it and refuse the evidence
    g0 = Parfactor(PotentialTable((EPID,), [1.0, 2.0]), Constraint.extensional((), [()]))
    g1 = Parfactor(PotentialTable((PRV("Smokes", (X,)),), [1.0, 0.0]), c_x(2))
    q = QuerySpec((atom("Epid"),), Evidence(((atom("Smokes", "x1"), "true"),)))
    for answer in (ground_ve, lifted_query):
        with pytest.raises(InferenceError, match="inconsistent evidence"):
            answer(ParameterisedModel((g0, g1)), q)
    # a parfactor with no arguments grounds to one factor per tuple too
    constant = Parfactor(PotentialTable((), [3.0]), Constraint.extensional((), [()]))
    m = ParameterisedModel((constant, g1))
    assert len(m.ground()) == m.ground_size() == 3
    assert [g.atoms for g in m.ground()] == [(), (atom("Smokes", "x1"),), (atom("Smokes", "x2"),)]


def test_ground_atoms_name_their_constants_as_constants():
    # grounding keys a run's members as plain strings; the ground atoms that
    # ground() returns, and those an aliasing error names, hold Constants
    y = Logvar("Y")
    m = ParameterisedModel((Parfactor(PotentialTable((SICK,), [1.0, 2.0]), c_x(3)),))
    args = [c for g in m.ground() for a in g.atoms for c in a.args]
    assert args == list(xs(3)) and all(type(c) is Constant for c in args)
    aliased = PotentialTable((SICK, PRV("Sick", (y,))), [1, 2, 3, 4])
    twice = Parfactor(aliased, Constraint.extensional((X, y), [(Constant("x1"), Constant("x1"))]))
    with pytest.raises(InferenceError, match="aliased arguments") as raised:
        ground_ve(ParameterisedModel((twice,)), QuerySpec((atom("Sick", "x1"),)))
    assert "Constant(name='x1')" in str(raised.value)
