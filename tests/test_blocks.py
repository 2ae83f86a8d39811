"""Constraint operations on blocks against the same operations on tuple lists.

Every reference below works on the tuple list a constraint was built from,
never on the constraint's own listing, so a block operation that disagrees
with it is wrong. The constants mix named ones with synthetic names, whose
string order differs from their numeric order (x10 sorts before x2), and
some sets are given as runs of synthetic names, which peels and meets cut.
"""

import dataclasses
import itertools
import operator
import re
import time
from collections import Counter

import numpy as np
import pytest

from liftworlds import (
    Constant,
    ConstantSet,
    Constraint,
    ConstraintsMisaligned,
    DomainSpec,
    EnumeratedDomain,
    Evidence,
    FixedDomain,
    GroundAtom,
    Logvar,
    NotCountNormalized,
    QuerySpec,
    UniverseModel,
    expand,
    io,
    lifted_query,
    parse_program,
)
from liftworlds import model, program
from liftworlds.model import (
    _count,
    _cover,
    _group,
    _holds,
    _join,
    _least,
    _meet,
    _peel,
    _project,
    _split,
    _union,
    _uniform_count,
    project,
)
from support import (
    decompose,
    epidemic_model,
    epidemic_template,
    group_instances,
    members,
    pair_universe,
    record_constants,
    xs,
)

LOGVARS = tuple(Logvar(n) for n in "XYZ")
POOL = tuple(Constant(c) for c in ("a", "b", "x1", "x2", "x3", "x10", "x11", "x100"))
PROBES = POOL + tuple(Constant(c) for c in ("c", "x5", "x12", "x99"))


def cut(tuples, pos):
    return [tuple(t[i] for i in pos) for t in tuples]


def draw(rng, n):
    return tuple(PROBES[i] for i in rng.integers(0, len(PROBES), n))


def random_set(rng):
    """Some of ``POOL``, maybe plus a run near x10 or x100: its names and the set."""
    names = [c for c in POOL if rng.random() < 0.4] or [POOL[rng.integers(len(POOL))]]
    runs = []
    if rng.random() < 0.3:
        lo = int(rng.choice([1, 8, 95])) + int(rng.integers(0, 5))
        runs.append((lo, lo + int(rng.integers(0, 8))))
    made = names + [Constant(f"x{i}") for lo, hi in runs for i in range(lo, hi + 1)]
    return made, ConstantSet(names, runs)


def random_tuples(rng, logvars):
    """A product, a union of products or no tuples, in a random order, and
    the product's own sets when it is one."""
    kind = rng.integers(4)
    if kind == 0:
        return [], None

    def product():
        sets = [random_set(rng) for _ in logvars]
        return list(itertools.product(*(names for names, _ in sets))), tuple(s for _, s in sets)

    block = None
    if kind == 1:
        ts, block = product()
    elif kind == 2:
        ts = [t for _ in range(rng.integers(2, 4)) for t in product()[0]]
    else:
        every = list(itertools.product(POOL[: rng.integers(1, 6)], repeat=len(logvars)))
        ts = [t for t in every if rng.random() < 0.5] or every[:1]
    return [ts[i] for i in rng.permutation(len(ts))], block


def random_constraint(rng):
    """A constraint over 0-3 logvars, and the sorted tuple list it was built from.

    A product is built from its sets half the time, runs given as runs, and
    from its tuples otherwise.
    """
    logvars = tuple(LOGVARS[i] for i in rng.permutation(3)[: rng.integers(0, 4)])
    ts, block = random_tuples(rng, logvars)
    if block is not None and rng.random() < 0.5:
        c = Constraint(logvars, (block,))
    else:
        c = Constraint.extensional(logvars, ts) if ts else Constraint.empty(logvars)
    return c, sorted(set(ts))


def random_group(rng, tuples, width):
    """Some of ``tuples``' instances plus one that is in none, as a group."""
    picked = {t for t in tuples if rng.random() < 0.5} | {draw(rng, width)}
    return frozenset(decompose(picked))


def partner_of(rng, c1, ts1):
    """A constraint that shares some of ``c1``'s logvars and pairs with it when left alone."""
    shared = [lv for lv in c1.logvars if rng.random() < 0.7]
    extra = [lv for lv in LOGVARS if lv not in c1.logvars and rng.random() < 0.5]
    pick = {}
    tuples = []
    for key in dict.fromkeys(cut(ts1, [c1.position(lv) for lv in shared])):
        row = dict(zip(shared, key))
        for lv in extra:
            row[lv] = pick.setdefault((key, lv), POOL[rng.integers(4)])
        tuples.append(row)
    order = [(shared + extra)[i] for i in rng.permutation(len(shared) + len(extra))]
    rows = [tuple(r[lv] for lv in order) for r in tuples]
    if rows and rng.random() < 0.3:
        rows.pop(rng.integers(len(rows)))
    if rng.random() < 0.3:
        rows.append(draw(rng, len(order)))
    c = Constraint.extensional(order, rows) if rows else Constraint.empty(order)
    return c, sorted(set(rows))


def reference_join(c1, ts1, c2, ts2):
    """The join when each tuple of either side has exactly one partner, else None."""
    shared = [lv for lv in c2.logvars if lv in c1.logvars]
    extra = [c2.position(lv) for lv in c2.logvars if lv not in c1.logvars]
    k1 = cut(ts1, [c1.position(lv) for lv in shared])
    k2 = cut(ts2, [c2.position(lv) for lv in shared])
    if sorted(k1) != sorted(k2) or len(set(k1)) != len(k1) or len(set(k2)) != len(k2):
        return None
    partner = dict(zip(k2, cut(ts2, extra)))
    return sorted(t + partner[k] for t, k in zip(ts1, k1))


def test_block_operations_match_the_listed_tuples():
    rng = np.random.default_rng(23)
    seen = Counter()
    for _ in range(1500):
        c, ts = random_constraint(rng)
        seen[("empty", "product", "union")[min(len(c.blocks), 2)]] += 1
        if any(lo < hi for b in c.blocks for s in b for lo, hi in s.runs):
            seen["runs"] += 1
        # size and listing
        assert c.size == len(ts)
        assert c.tuples == tuple(ts)
        # groups: instances, count, least instance and membership
        width = len(c.logvars)
        params = tuple(c.logvars[i] for i in rng.permutation(width)[: rng.integers(0, width + 1)])
        pos = [c.position(lv) for lv in params]
        want = set(cut(ts, pos))
        group = _group(c, params)
        assert group_instances(group) == want
        assert group == frozenset(decompose(want))
        assert _count(group) == len(want)
        if want:
            assert _least(group) == min(want)
        probe = draw(rng, len(params))
        assert _holds(group, probe) == (probe in want)
        # projection
        assert sorted(group_instances(_project(c, params))) == sorted(want)
        # cover: the cut blocks, which overlap when they drop a logvar, each
        # with a weight, against the summed weight of each listed cut tuple;
        # when every tuple sums to one weight, as under zero weights, the
        # cover is the canonical decomposition
        cut_blocks = [tuple(b[i] for i in pos) for b in c.blocks]
        zero = rng.random() < 0.3
        weights = [0 if zero else int(w) for w in rng.integers(1, 4, len(cut_blocks))]
        weighted = Counter()
        for b, w in zip(c.blocks, weights):
            for k in set(cut([t for t in ts if all(map(operator.contains, b, t))], pos)):
                weighted[k] += w
        cover = _cover(cut_blocks, weights)
        assert {t: w for b, w in cover.items() for t in group_instances([b])} == dict(weighted)
        assert _count(cover) == len(weighted)
        if len(set(weighted.values())) <= 1:
            assert frozenset(cover) == frozenset(decompose(want))
            seen["canonical cover"] += 1
        if _count(cut_blocks) > len(want):
            seen["cover of overlapping blocks"] += 1
        # peel: the same part keys, in the same order, and the same tuples
        named = {PROBES[i] for i in rng.permutation(len(PROBES))[: rng.integers(0, 4)]} | {Constant("e")}
        ref: dict[tuple, list] = {}
        for t in ts:
            ref.setdefault(tuple(k if k in named else "" for k in t), []).append(t)
        parts = _peel(c, named)
        assert sorted(parts) == sorted(ref)
        assert all(parts[k].tuples == tuple(ref[k]) for k in ref)
        # split on a group's instances, and the meet of two groups
        other = random_group(rng, want, len(params))
        inside, outside = _split(c, params, other)
        got_in = group_instances(other)
        assert inside.tuples == tuple(t for t in ts if tuple(t[i] for i in pos) in got_in)
        assert outside.tuples == tuple(t for t in ts if tuple(t[i] for i in pos) not in got_in)
        assert group_instances(_meet(group, other)) == want & got_in
        assert _meet(group, other) == frozenset(decompose(want & got_in))
        # uniform count and projection
        keep = [lv for lv in c.logvars if lv in params]
        kept = cut(ts, [c.position(lv) for lv in keep])
        counts = Counter(kept)
        if len(set(counts.values())) != 1:
            with pytest.raises(NotCountNormalized):
                _uniform_count(c, keep)
            seen["count refused"] += 1
        else:
            n, projected = _uniform_count(c, keep)
            assert n == counts.popitem()[1]
            assert (projected.logvars, projected.tuples) == (tuple(keep), tuple(sorted(set(kept))))
        # join, against a partner made to pair and against an unrelated constraint
        for c2, ts2 in (partner_of(rng, c, ts), random_constraint(rng)):
            want_join = reference_join(c, ts, c2, ts2)
            if want_join is None:
                with pytest.raises(ConstraintsMisaligned):
                    _join(c, c2)
                seen["join refused"] += 1
            else:
                joined = _join(c, c2)
                extra = tuple(lv for lv in c2.logvars if lv not in c.logvars)
                assert joined.logvars == c.logvars + extra
                assert joined.tuples == tuple(want_join)
                assert joined.size == len(want_join)
                seen["join"] += 1
    assert min(seen.values()) > 50, seen


def test_extensional_round_trips_its_tuples():
    rng = np.random.default_rng(29)
    for _ in range(500):
        logvars = tuple(LOGVARS[i] for i in rng.permutation(3)[: rng.integers(0, 4)])
        ts, _ = random_tuples(rng, logvars)
        if not ts:
            continue
        c = Constraint.extensional(logvars, ts)
        assert c.tuples == tuple(sorted(set(ts)))
        assert set(c.blocks) == set(decompose(set(ts)))


def test_equal_tuple_sets_give_equal_constraints():
    # built from one tuple set in another order, or made by the engine's
    # operations: equal tuple sets compare and hash equal, however cut
    rng = np.random.default_rng(31)

    def same(got, logvars, tuples):
        want = Constraint.extensional(logvars, tuples) if tuples else Constraint.empty(logvars)
        assert got == want and hash(got) == hash(want)

    made = Counter()
    for _ in range(500):
        c, ts = random_constraint(rng)
        same(c, c.logvars, ts[::-1])
        assert (c == Constraint.empty(c.logvars)) == (not ts)
        width = len(c.logvars)
        params = tuple(c.logvars[i] for i in rng.permutation(width)[: rng.integers(0, width + 1)])
        pos = [c.position(lv) for lv in params]
        other = random_group(rng, set(cut(ts, pos)), len(params))
        inside, outside = _split(c, params, other)
        got_in = group_instances(other)
        same(inside, c.logvars, [t for t in ts if tuple(t[i] for i in pos) in got_in])
        same(outside, c.logvars, [t for t in ts if tuple(t[i] for i in pos) not in got_in])
        made["split"] += 1
        if ts:
            same(project(c, params), params, cut(ts, pos))
            made["project"] += 1
        c2, ts2 = partner_of(rng, c, ts)
        want_join = reference_join(c, ts, c2, ts2)
        if want_join is not None:
            same(_join(c, c2), c.logvars + tuple(lv for lv in c2.logvars if lv not in c.logvars),
                 want_join)
            made["join"] += 1
    assert min(made.values()) > 100, made


def test_lifted_query_lists_no_tuple_of_a_product(monkeypatch):
    # only the target's own factor, one tuple, is listed: phase 2 grounds it
    listed = []
    original = model._listed

    def counting(blocks):
        out = original(blocks)
        listed.append(len(out))
        return out

    monkeypatch.setattr(model, "_listed", counting)
    m = epidemic_model(2000, 2)
    sick = GroundAtom("Sick", (Constant("x1"),))
    travel = GroundAtom("Travel", (Constant("x2"),))
    for q in (QuerySpec((sick,)), QuerySpec((sick,), Evidence(((travel, "true"),)))):
        listed.clear()
        lifted_query(m, q)
        assert listed == [1]


def test_expand_lists_no_tuple_of_a_product(monkeypatch, data_dir):
    # every binding of the bundled triple is a product in every world, so
    # its answer patterns become blocks without a tuple listed; the domains
    # are runs, and the program's pools are cut from them, so no person is
    # named either, with bins of 100 persons or of 10^5
    calls = []
    for owner, name in ((model, "_listed"), (program, "_list")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    spec = io.load_domain_spec(data_dir / "domains.json")
    template = io.load_model(data_dir / "model.json")
    rules = io.load_program(data_dir / "constraints.program")
    made = record_constants(monkeypatch)
    for step in (100, 10**5):
        wide = DomainSpec({**spec.entries, "X": dataclasses.replace(spec.entries["X"], step=step)})
        models = expand(UniverseModel(template, rules, wide))
        assert len(models) == 60
        assert max(wm.provenance.domain_sizes["X"] for wm in models) == 20 * step
    assert calls == []
    assert [c for c in made if re.fullmatch(r"x[1-9][0-9]*", c)] == []


def test_expand_lists_no_tuple_of_a_pair_binding(monkeypatch):
    # pair(X,Y) over one type of persons: the pattern of two representatives
    # is one product block, which holds the diagonal's pattern too, so one
    # bin of 100 persons or of 10^5 expands with no tuple listed and no
    # person named
    calls = []
    for owner, name in ((model, "_listed"), (program, "_list")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    made = record_constants(monkeypatch)
    for n in (100, 10**5):
        (wm,) = expand(pair_universe(1, n))
        assert wm.form is not None and wm.model.parfactors[2].constraint.size == n * n
    assert calls == []
    assert [c for c in made if re.fullmatch(r"x[1-9][0-9]*", c)] == []


def test_lifted_query_on_a_million_persons_costs_what_a_thousand_do():
    # the persons are one run, peeling x1 cuts it in two, and no step
    # depends on the run's length: the same op records (only the exponents
    # that count the other persons differ), in a time far below the ~0.45 s
    # a million set members took to peel and hash
    q = QuerySpec((GroundAtom("Sick", (Constant("x1"),)),))
    small, large = epidemic_model(10**3, 2), epidemic_model(10**6, 2)
    logs = [], []
    lifted_query(small, q, op_log=logs[0])
    lifted_query(large, q, op_log=logs[1])
    assert [(r.kind, r.detail) for r in logs[0]] == [(r.kind, r.detail) for r in logs[1]]
    assert {(a.exponent, b.exponent) for a, b in zip(*logs) if a.exponent != b.exponent} == {(999, 10**6 - 1)}
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        lifted_query(large, q)
        best = min(best, time.perf_counter() - started)
    assert best < 0.1, best


def test_equality_and_hash_list_no_tuple(monkeypatch):
    # one tuple set cut three ways over a million persons compares and
    # hashes equal, without a tuple listed
    calls = []
    real = model._listed
    monkeypatch.setattr(model, "_listed", lambda blocks: calls.append(blocks) or real(blocks))
    x, t = LOGVARS[0], Logvar("T")
    persons, both = ConstantSet(runs=((1, 10**6),)), ConstantSet(("t1", "t2"))
    whole = Constraint((x, t), ((persons, both),))
    by_person = Constraint((x, t), (
        (ConstantSet(("x10",)), both),
        (persons - ConstantSet(("x10",)), both),
    ))
    by_treatment = Constraint((x, t), ((persons, ConstantSet(("t1",))), (persons, ConstantSet(("t2",)))))
    assert whole == by_person == by_treatment == whole
    assert hash(whole) == hash(by_person) == hash(by_treatment)
    x7 = ConstantSet(("x7",))
    fewer = Constraint((x, t), ((persons - x7, both), (x7, ConstantSet(("t1",)))))
    shifted = Constraint((x, t), ((ConstantSet(runs=((2, 10**6 + 1),)), both),))
    assert whole != fewer and whole != shifted and by_treatment != shifted
    assert calls == []


def test_projection_count_and_join_of_several_blocks_list_no_tuple(monkeypatch):
    # blocks over a million persons whose cut first sets overlap: each
    # operation works on their covers, and any listing raises
    def refuse(blocks):
        raise AssertionError("a tuple was listed")

    monkeypatch.setattr(model, "_listed", refuse)
    x, t, z = LOGVARS[0], Logvar("T"), LOGVARS[2]
    persons, x7 = ConstantSet(runs=((1, 10**6),)), ConstantSet(("x7",))
    t1, t2, z1, z2 = (ConstantSet((n,)) for n in ("t1", "t2", "z1", "z2"))
    c = Constraint((x, t, z), ((persons, t1, z1), (persons, t1, z2), (x7, t2, z1)))
    assert project(c, (x, t)) == Constraint((x, t), ((persons - x7, t1), (x7, t1.union(t2))))
    with pytest.raises(NotCountNormalized):
        _uniform_count(c, (x, t))
    two = Constraint((x, z), ((persons - x7, z1), (persons, z2), (x7, z1)))
    assert _uniform_count(two, (x,)) == (2, Constraint((x,), ((persons,),)))
    treated = Constraint((x, t), ((persons - x7, t1), (x7, t2)))
    joined = _join(treated, Constraint((z, x), ((z1, persons),)))
    assert joined == Constraint((x, t, z), ((persons - x7, t1, z1), (x7, t2, z1)))
    with pytest.raises(ConstraintsMisaligned):
        _join(treated, Constraint((x,), ((persons - x7,), (ConstantSet(("x7", "x8")),))))


def test_union_of_disjoint_blocks_is_their_decomposition(monkeypatch):
    # the generator's blocks, each set cut in two a few times: the blocks stay
    # disjoint, and a cut of a first set leaves first sets that overlap
    # without being equal, which _union unites without listing a tuple
    rng = np.random.default_rng(37)
    listed = []
    real = model._listed
    monkeypatch.setattr(model, "_listed", lambda blocks: listed.append(blocks) or real(blocks))
    seen = Counter()
    for _ in range(1000):
        logvars = tuple(LOGVARS[i] for i in rng.permutation(3)[: rng.integers(1, 4)])
        ts, _ = random_tuples(rng, logvars)
        if not ts:
            continue
        # decompose orders its blocks by string hash; sorted, the same
        # blocks are cut in every process
        blocks = sorted(decompose(set(ts)), key=lambda b: real([b])[0])
        for _ in range(rng.integers(0, 9)):
            i = rng.integers(len(logvars))
            wide = [k for k, b in enumerate(blocks) if len(b[i]) > 1]
            if not wide:
                continue
            k = wide[rng.integers(len(wide))]
            names = members(blocks[k][i])
            part = ConstantSet(names[j] for j in rng.permutation(len(names))[: rng.integers(1, len(names))])
            b = blocks[k]
            blocks[k : k + 1] = [b[:i] + (part,) + b[i + 1 :], b[:i] + (b[i] - part,) + b[i + 1 :]]
        firsts = set(b[0] for b in blocks)
        if sum(map(len, firsts)) > len(ConstantSet().union(*firsts)):
            seen["first sets overlap"] += 1
        seen[len(blocks) > 1] += 1
        listed.clear()
        got = _union(blocks)
        assert listed == []
        assert frozenset(got) == frozenset(decompose(set(ts)))
        assert _count(got) == len(set(ts))
    assert min(seen.values()) > 100, seen


def test_expand_lists_no_tuple_of_a_ragged_binding(monkeypatch):
    # every person is treated with t1 and the ones in ``second`` with t2 as
    # well, so the Treat binding's blocks share their first sets; they are
    # united by set algebra, not listed
    second = ["x2", "x5", "x7", "x8", "x13", "x21", "x30", "x34"]
    program = parse_program(
        "treated(X,t1) :- instance_of_X(X).\n"
        "treated(X,t2) :- instance_of_X(X) & second(X).\n"
        "populate instance_of_X/1 from X.\n"
        "constraint g0 <- top.\nconstraint g1 <- instance_of_X(X).\nconstraint g2 <- treated(X,T).\n"
        + "".join(f"second({x}).\n" for x in second)
    )
    spec = DomainSpec({
        "X": EnumeratedDomain(tuple((tuple(xs(n)), p) for n, p in ((10, 0.2), (20, 0.3), (40, 0.5)))),
        "T": FixedDomain((Constant("t1"), Constant("t2"))),
    })
    calls = []
    real = model._listed
    monkeypatch.setattr(model, "_listed", lambda blocks: calls.append(blocks) or real(blocks))
    models = expand(UniverseModel(epidemic_template(), program, spec))
    assert calls == []
    monkeypatch.undo()
    for wm in models:
        n = wm.provenance.domain_sizes["X"]
        treat = wm.model.parfactors[2].constraint
        want = {(x, "t1") for x in xs(n)} | {(x, "t2") for x in xs(n) if x in second}
        assert set(treat.tuples) == want
        assert len(treat.blocks) == 2
