"""The block form of a constraint against the same operations on its listed tuples.

Every reference below works on a :class:`Constraint`'s stored tuples only,
so a block operation that disagrees with it is wrong.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from liftworlds import (
    Constant,
    Constraint,
    ConstraintsMisaligned,
    Evidence,
    GroundAtom,
    Logvar,
    NotCountNormalized,
    QuerySpec,
    lifted_query,
)
from liftworlds import model
from liftworlds.model import (
    _count,
    _decompose,
    _group,
    _holds,
    _join,
    _least,
    _meet,
    _peel,
    _project,
    _split,
    _uniform_count,
    blocks_of,
)
from support import epidemic_model, group_instances

LOGVARS = tuple(Logvar(n) for n in "XYZ")
POOL = tuple(Constant(c) for c in ("a", "b", "c", "d"))


def cut(tuples, pos):
    return [tuple(t[i] for i in pos) for t in tuples]


def draw(rng, n):
    return tuple(POOL[i] for i in rng.integers(0, len(POOL), n))


def random_constraint(rng, logvars=None):
    """A product, a union of products or a constraint with no tuples, over 0-3 logvars."""
    if logvars is None:
        logvars = tuple(LOGVARS[i] for i in rng.permutation(3)[: rng.integers(0, 4)])
    kind = rng.integers(4)
    if kind == 0:
        return Constraint(logvars, ())

    def product():
        sets = [[c for c in POOL if rng.random() < 0.6] or [POOL[rng.integers(4)]] for _ in logvars]
        return set(itertools.product(*sets))

    if kind == 1:
        return Constraint(logvars, product())
    if kind == 2:
        return Constraint(logvars, set().union(*(product() for _ in range(rng.integers(2, 4)))))
    every = list(itertools.product(POOL[: rng.integers(1, 5)], repeat=len(logvars)))
    return Constraint(logvars, [t for t in every if rng.random() < 0.5] or every[:1])


def random_group(rng, tuples, width):
    """Some of ``tuples``' instances plus one that is in none, as a group."""
    picked = {t for t in tuples if rng.random() < 0.5} | {draw(rng, width)}
    return frozenset(_decompose(picked))


def partner_of(rng, c1):
    """A constraint that shares some of ``c1``'s logvars and pairs with it when left alone."""
    shared = [lv for lv in c1.logvars if rng.random() < 0.7]
    extra = [lv for lv in LOGVARS if lv not in c1.logvars and rng.random() < 0.5]
    pick = {}
    tuples = []
    for key in dict.fromkeys(cut(c1.tuples, [c1.position(lv) for lv in shared])):
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
    return Constraint(tuple(order), rows)


def reference_join(c1, c2):
    """The join when each tuple of either side has exactly one partner, else None."""
    shared = [lv for lv in c2.logvars if lv in c1.logvars]
    extra = [c2.position(lv) for lv in c2.logvars if lv not in c1.logvars]
    k1 = cut(c1.tuples, [c1.position(lv) for lv in shared])
    k2 = cut(c2.tuples, [c2.position(lv) for lv in shared])
    if sorted(k1) != sorted(k2) or len(set(k1)) != len(k1) or len(set(k2)) != len(k2):
        return None
    partner = dict(zip(k2, cut(c2.tuples, extra)))
    return sorted(t + partner[k] for t, k in zip(c1.tuples, k1))


def test_block_operations_match_the_listed_tuples():
    rng = np.random.default_rng(23)
    seen = Counter()
    for _ in range(1500):
        c = random_constraint(rng)
        b = blocks_of(c)
        seen[("empty", "product", "union")[min(len(b.blocks), 2)]] += 1
        # size and listing
        assert b.size == c.size
        assert b.tuples == list(c.tuples)
        # groups: instances, count, least instance and membership
        width = len(c.logvars)
        params = tuple(c.logvars[i] for i in rng.permutation(width)[: rng.integers(0, width + 1)])
        pos = [c.position(lv) for lv in params]
        want = set(cut(c.tuples, pos))
        group = _group(b, params)
        assert group_instances(group) == want
        assert group == frozenset(_decompose(want))
        assert _count(group) == len(want)
        if want:
            assert _least(group) == min(want)
        probe = draw(rng, len(params))
        assert _holds(group, probe) == (probe in want)
        # projection
        assert sorted(group_instances(_project(b, params))) == sorted(want)
        # peel: the same part keys, in the same order, and the same tuples
        named = {POOL[i] for i in rng.permutation(4)[: rng.integers(0, 3)]} | {Constant("e")}
        ref: dict[tuple, list] = {}
        for t in c.tuples:
            ref.setdefault(tuple(k if k in named else "" for k in t), []).append(t)
        parts = _peel(b, named)
        assert sorted(parts) == sorted(ref)
        assert all(parts[k].tuples == ref[k] for k in ref)
        # split on a group's instances, and the meet of two groups
        other = random_group(rng, want, len(params))
        inside, outside = _split(b, params, other)
        got_in = group_instances(other)
        assert inside.tuples == [t for t in c.tuples if tuple(t[i] for i in pos) in got_in]
        assert outside.tuples == [t for t in c.tuples if tuple(t[i] for i in pos) not in got_in]
        assert group_instances(_meet(group, other)) == want & got_in
        assert _meet(group, other) == frozenset(_decompose(want & got_in))
        # uniform count and projection
        keep = [lv for lv in c.logvars if lv in params]
        kept = cut(c.tuples, [c.position(lv) for lv in keep])
        counts = Counter(kept)
        if len(set(counts.values())) != 1:
            with pytest.raises(NotCountNormalized):
                _uniform_count(b, keep)
            seen["count refused"] += 1
        else:
            n, projected = _uniform_count(b, keep)
            assert n == counts.popitem()[1]
            assert (projected.logvars, projected.tuples) == (tuple(keep), sorted(set(kept)))
        # join, against a partner made to pair and against an unrelated constraint
        for c2 in (partner_of(rng, c), random_constraint(rng)):
            want_join = reference_join(c, c2)
            if want_join is None:
                with pytest.raises(ConstraintsMisaligned):
                    _join(b, blocks_of(c2))
                seen["join refused"] += 1
            else:
                joined = _join(b, blocks_of(c2))
                extra = tuple(lv for lv in c2.logvars if lv not in c.logvars)
                assert joined.logvars == c.logvars + extra
                assert joined.tuples == want_join
                assert joined.size == len(want_join)
                seen["join"] += 1
    assert min(seen.values()) > 50, seen


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
