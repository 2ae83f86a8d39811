"""Exact query answering on one parameterised model.

Two routes compute every marginal. ``ground_ve`` expands all parfactors into
ground factors and runs propositional variable elimination; it embodies the
reference semantics (the normalized product of all ground factors) and
serves as the correctness oracle for the fast path. ``lifted_query``
eliminates whole groups of interchangeable randvar instances at once: it
sums out one representative and raises the result to the number of
instances covered, so its cost tracks the number of parfactor groups rather
than the number of constants.

The lifted toolbox is deliberately small and private to ``lifted_query``:
lifted sum-out, lifted multiply, evidence absorption, shattering and
refining. A constraint is a union of disjoint blocks, each a product of
per-logvar constant sets, and the engine takes it as the model holds it:
nothing is converted per query. Shattering peels the query's constants off
each block; refining overlapping groups cuts blocks on a group. Anonymous
constants sit in runs of synthetic names, so peeling ``x1`` off a million
persons cuts one run, and no lifted step costs more as the domain grows. A
factor's groups (each argument's instance set, in block form) are computed
once, when the factor is made over a new constraint; multiply, sum-out and
absorb carry them over, since none of them changes the instances of an
argument it keeps. No step of the lifted phase lists the tuples of a
product; only grounding does. Each operator checks the counting conditions
that make it exact:

* multiply pairs the groundings of both inputs one-to-one on the values of
  their shared logvars while it joins: a key repeated in either input, or a
  key only one input has, would count potentials with the wrong
  multiplicity;
* sum-out requires every instance of the summed-out PRV to live in exactly
  one grounding (its group is as large as the constraint), and every kept
  tuple to extend to the same number of groundings (that shared count is
  the exponent).

When a condition fails for a group, the group is set aside and never tried
again. Once no lifted step is left, every remaining factor is grounded and
the rest is eliminated propositionally by the routine ``ground_ve`` uses, so
answers stay exact while liftedness degrades. Potentials travel in log
space (an exponent of a few hundred overflows linear doubles).

Both routes are a plan and a run (compile once, evaluate many times: Van
den Broeck et al., IJCAI 2011). The structural work records the table work
as steps; ``_tables``, the one place tables are computed, takes the steps
over tables with a leading world axis, one row of exponents per world, and
``_run`` normalizes what it returns. Exponents are floats, as the log
tables they scale. ``ground_ve`` runs its plan with no exponents.
``_plan`` does the lifted route's structural work on one world, and
``lifted_query`` runs a world's own plan, a batch of one. A lifted plan
also records every count comparison a size decided, each as the
constraints or groups it counts: the join and count checks, the
equal-weights test behind each exponent and the cost order. Each count is
a sum of products of sums of the world's region sizes (``model._shape``;
counts as functions of set sizes, Kisynski & Poole, UAI 2009), so
``model._at_sizes`` gives every decision and exponent at another world's
sizes, and ``queries.query_all`` runs one plan for every world of a
structure that makes the same decisions. The engine counts no region.

Phase 2 grounds every person of a stuck group, but the plan records each
distinct step once, as compiled circuits share equal subcircuits (Chavira &
Darwiche, IJCAI 2005): another person's ground factors over the same
tables, multiplied and summed out in the same layout, are steps already
recorded. Eliminating an atom multiplies all the factors that hold it in
one step (:func:`_ground_product`), however many they are, so the product
of every person's factor into the one they all share is one step as well.
A plan's step count thus does not grow with the persons it grounds, only
with the kinds of person (a ragged group's treatment sets), and a run
computes each step once; the oracle's ground steps are shared the same
way. The table arithmetic still grows with the persons: a product step
adds one aligned table per holder, so the shared product costs one add
per person. So does the structural work of phase 2, grounding and
ordering the elimination, but not for private leaves: before it grounds,
phase 2 sums out on its lifted factor each argument whose atoms would each
sit in one ground factor (:func:`_leaves`), by the step elimination would
record for each of them, so those atoms are never grounded. A run drops
each table after the last step that reads it. Phase 2 works on ints from
the moment a tuple is grounded: ``model._groundings`` gives each atom as
its ``(name, args)`` key, :func:`_ground_factors` interns the keys into
ids (the targets' first), and a ground factor is a plain ``(atoms,
ranges, logtab)`` tuple.
:func:`_eliminate` ranks the other keys by one sort, in the order atoms
compare, and orders its heap by ``(factor count, rank)``, so its loop
compares and hashes ints only. Atom objects are made for the query, op-log
text and error messages only.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConstraintsMisaligned, InferenceError, NotCountNormalized, ValidationError
from .model import (
    Constant,
    Constraint,
    GroundAtom,
    Logvar,
    Parfactor,
    ParameterisedModel,
    PRV,
    Range,
    _count,
    _flat_index,
    _group,
    _groundings,
    _holds,
    _inside,
    _join,
    _least,
    _meet,
    _peel,
    _split,
    _uniform_count,
)

# ---------------------------------------------------------------------------
# query data types


@dataclass(frozen=True)
class Evidence:
    """Observed values for ground atoms; duplicate atoms must agree."""

    assignments: tuple[tuple[GroundAtom, str], ...] = ()

    def __post_init__(self):
        seen: dict[GroundAtom, str] = {}
        for atom, value in self.assignments:
            if seen.get(atom, value) != value:
                raise ValidationError(f"contradictory evidence for {atom}")
            seen[atom] = value
        object.__setattr__(self, "assignments", tuple(sorted(seen.items())))

    def atoms(self) -> tuple[GroundAtom, ...]:
        return tuple(a for a, _ in self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)


NO_EVIDENCE = Evidence()


@dataclass(frozen=True)
class QuerySpec:
    """Targets to keep and evidence to condition on."""

    targets: tuple[GroundAtom, ...]
    evidence: Evidence = NO_EVIDENCE

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ValidationError("query needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("query targets must be distinct")
        observed = set(self.evidence.atoms())
        clash = [t for t in self.targets if t in observed]
        if clash:
            raise ValidationError(f"target {clash[0]} also appears in evidence")


@dataclass(frozen=True, eq=False)
class MarginalDistribution:
    """Normalized joint over the targets, flat in the shared row-major layout."""

    targets: tuple[GroundAtom, ...]
    ranges: tuple[Range, ...]
    probs: np.ndarray

    def __post_init__(self):
        # joints are small: plain Python checks them faster than numpy calls
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if probs.size != math.prod(map(len, self.ranges)):
            raise ValidationError("probability vector does not match the joint range")
        values = probs.tolist()
        if min(values) < 0 or not abs(sum(values) - 1.0) <= 1e-9:
            raise ValidationError("probabilities must be non-negative and sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.ranges)

    def as_array(self) -> np.ndarray:
        return self.probs.reshape(self.shape)

    def prob(self, assignment: Sequence[str]) -> float:
        return float(self.probs[_flat_index(self.ranges, assignment, "targets")])

    def event_prob(self, atom: GroundAtom, value: str) -> float:
        """Marginal probability of one target taking one value."""
        try:
            axis = self.targets.index(atom)
        except ValueError:
            raise ValidationError(f"{atom} is not a query target") from None
        vi = self.ranges[axis].index(value)
        if len(self.targets) == 1:
            return float(self.probs[vi])
        return float(np.take(self.as_array(), vi, axis=axis).sum())


@dataclass(frozen=True)
class OpRecord:
    kind: str  # split | absorb | multiply | sum_out | ground
    detail: str = ""
    exponent: int | None = None


def _note(log: list | None, kind: str, detail: str = "", exponent: int | None = None):
    if log is not None:
        log.append(OpRecord(kind, detail, exponent))


# ---------------------------------------------------------------------------
# table steps
#
# ``_tables`` runs these steps. A table's last axes are its arguments'
# ranges, after a world axis of length 1 until an exponent spreads it over
# the worlds, so the steps below count argument axes from the end.


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    if finite.all():
        # each slice's sum holds exp(0) = 1, so no zero reaches the log
        return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis=axis)
    m = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore"):  # an all-zero slice's log is -inf
        return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis=axis)


def _log(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):  # a zero potential's log is -inf
        return np.log(values)


def _logtable(t) -> np.ndarray:
    """A :class:`PotentialTable`'s log table with a world axis; ``t`` keys a memo by identity (``eq=False``)."""
    return _log(t.as_array())[None]


def _aligned(tab: np.ndarray, src: tuple[int, ...], n: int) -> np.ndarray:
    """View of ``tab`` broadcastable over ``n`` axes: its last axis k goes to axis ``src[k]``."""
    lead = tab.ndim - len(src)
    perm = list(range(lead))
    perm += [lead + k for k in sorted(range(len(src)), key=src.__getitem__)]
    idx = (...,) + tuple([slice(None) if x in src else None for x in range(n)])
    return tab.transpose(perm)[idx]


def _product(*args) -> np.ndarray:
    """``_product(*tabs, srcs, order, n)``: the sum of the log tables ``tabs[j]``, ``j`` in ``order``.

    Each table is aligned once, ``tabs[j]`` by ``srcs[j]`` over ``n`` axes,
    and the tables are added one at a time in their order, repeats
    included, so every cell sees the additions a chain of binary products
    makes, in the same order, and no more than two sums are held at once.
    """
    *tabs, srcs, order, n = args
    aligned = [_aligned(t, src, n) for t, src in zip(tabs, srcs)]
    return functools.reduce(np.add, map(aligned.__getitem__, order))


def _ground_product(factors: Sequence[tuple], plan: _Plan) -> tuple:
    """The product of ``factors`` as one step: the one product routine.

    Each factor is ``(keys, data, logtab)``: ``keys`` name its axes (atom
    ids, or PRVs), ``data`` holds one value per axis (ranges, or groups)
    and ``logtab`` is its table's step. The product is a factor of the same
    form whose axes are the first factor's, then each later factor's keys
    that no earlier factor has, in their order, as a chain of binary
    products lays them out. The step names axes by position, so products
    over other atoms or PRVs laid out the same way are one step, and it
    reads a table laid out one way once, however often it repeats.
    """
    if len(factors) == 1:
        return factors[0]
    keys, data, logtab = factors[0]
    same = tuple(range(len(keys)))  # the layout of a factor over exactly ``keys``
    views = {(logtab, same): 0}
    order = [0]
    for f_keys, f_data, logtab in factors[1:]:
        if f_keys == keys:
            order.append(views.setdefault((logtab, same), len(views)))
            continue
        new, src = [], []
        for k, x in enumerate(f_keys):
            if x in keys:
                src.append(keys.index(x))
            else:
                src.append(len(keys) + len(new))
                new.append(k)
        if new:
            keys += tuple([f_keys[k] for k in new])
            data += tuple([f_data[k] for k in new])
            same = tuple(range(len(keys)))
        order.append(views.setdefault((logtab, tuple(src)), len(views)))
    refs, srcs = zip(*views)
    return keys, data, plan.tab(_product, refs, srcs, tuple(order), len(keys))


def _scaled(tab: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``tab`` times ``n``, one exponent per world."""
    return tab * np.reshape(n, (-1,) + (1,) * (tab.ndim - 1))


def _summed(tab: np.ndarray, n: np.ndarray, axis: int) -> np.ndarray:
    return _scaled(_logsumexp(tab, axis), n)


class _Plan:
    """A query's table work as steps, plus what makes a lifted plan hold at other sizes.

    A step ``(fn, refs, params)`` applies ``fn`` to the tables of the earlier
    steps ``refs`` and to ``params``; ``result`` is the step that holds the
    answer's table. A step with no ``fn`` reads each world's exponent number
    ``params[0]``.

    Equal steps are recorded once (hash-consing): ``memo`` maps each step to
    its index, and :meth:`tab` returns the earlier index for a step equal to
    one already recorded, as another person's ground factors multiplied and
    summed the same way in phase 2 are. A product of any number of factors
    is one step that reads each distinct table once, so the product of
    every person's factor into a shared one is one step, whatever the
    number of persons, though it still adds one table per person. Steps
    name axes by position and tables by their
    :class:`PotentialTable`, so every param hashes cheaply.
    :meth:`drop` forgets a stuck group's steps and their memo entries.
    ``last`` names each step's last reader, where a run drops its table.

    ``exponents`` are a lifted plan's exponents, and ``powers`` name
    where each comes from: the uniform count of a constraint cut down to
    some positions. ``checks`` are the count comparisons whose outcome a
    size could change, each a kind and what it counts: ``("pair", side,
    side)`` over lists of constraints or groups, or ``("one" | "same", c,
    pos)`` over a cut. ``model._at_sizes`` reads both. ``batchable`` says
    phase 2 grounds only the query's constants, so that every world of the
    structure grounds the same atoms.
    """

    def __init__(self, targets: tuple[GroundAtom, ...], ranges: tuple[Range, ...]):
        self.targets = targets
        self.ranges = ranges
        self.steps: list[tuple] = []
        self.memo: dict[tuple, int] = {}
        self.last: list[int] = []
        self.checks: list[tuple] = []
        self.exponents: list[int] = []
        self.powers: list[tuple[Constraint, list[int]]] = []
        self.result = -1
        self.batchable = False

    def tab(self, fn, tabs: tuple, *params) -> int:
        """The step ``fn(*tabs, *params)``: an equal earlier one, or a new one."""
        step = (fn, tabs, params)
        i = self.memo.setdefault(step, len(self.steps))
        if i == len(self.steps):
            self.steps.append(step)
        return i

    def drop(self, mark: int) -> None:
        """Forget every step from ``mark`` on, and every memo entry at or past it."""
        del self.steps[mark:]
        self.memo = {k: i for k, i in self.memo.items() if i < mark}

    def finish(self, result: int) -> None:
        """Name the answer's step and the last step that reads each step's table."""
        self.result = result
        self.last = last = [-1] * len(self.steps)  # -1: read by no step, or the answer
        for i, step in enumerate(self.steps):
            for r in step[1]:
                last[r] = i
        last[result] = -1

    def check(self, *record) -> None:
        self.checks.append(record)

    def power(self, n: int, c: Constraint, pos: list[int]) -> int:
        self.exponents.append(n)
        self.powers.append((c, pos))
        return self.tab(None, (), len(self.powers) - 1)


# ---------------------------------------------------------------------------
# lifted factors (internal log-space representation)


@dataclass
class _Lifted:
    args: tuple[PRV, ...]
    logtab: int  # the step of its table, one axis per argument range
    constraint: Constraint
    groups: tuple[frozenset, ...]  # each argument's instances, as blocks


def _lifted(args: tuple[PRV, ...], logtab: int, c: Constraint) -> _Lifted:
    """A factor over a new constraint: the one place groups are computed.

    Operators that keep a constraint's instance sets (a one-to-one join, a
    projection onto the remaining arguments) carry their input's groups.
    """
    return _Lifted(args, logtab, c, tuple(_group(c, a.params) for a in args))


def _uniform(c: Constraint, keep: Sequence[Logvar], plan: _Plan) -> tuple[int, int, Constraint]:
    """:func:`_uniform_count`, with its equal-weights test and its count recorded in a plan.

    Returns the count, the count as a table step, and the projection.
    """
    pos = [c.position(lv) for lv in keep]
    plan.check("same", c, pos)
    n, projected = _uniform_count(c, keep)
    return n, plan.power(n, c, pos), projected


def _multiply(a: _Lifted, b: _Lifted, plan: _Plan) -> _Lifted:
    shared = [lv for lv in b.constraint.logvars if lv in a.constraint.logvars]
    for c in (a.constraint, b.constraint):
        plan.check("one", c, [c.position(lv) for lv in shared])
    join = _join(a.constraint, b.constraint)
    args, groups, logtab = _ground_product([(a.args, a.groups, a.logtab), (b.args, b.groups, b.logtab)], plan)
    return _Lifted(args, logtab, join, groups)


def _sum_out(lf: _Lifted, prv: PRV, plan: _Plan) -> tuple[_Lifted, int]:
    hits = [i for i, a in enumerate(lf.args) if a == prv]
    if len(hits) != 1:
        raise ValidationError(f"{prv} must occur exactly once among the arguments")
    axis = hits[0]
    # each instance of prv may appear in only one grounding, or a plain sum is wrong
    plan.check("pair", [lf.groups[axis]], [lf.constraint])
    if _count(lf.groups[axis]) != lf.constraint.size:
        raise NotCountNormalized(
            f"instances of {prv} are shared between groundings; sum-out needs grounding"
        )
    rest = lf.args[:axis] + lf.args[axis + 1 :]
    rest_logvars = {lv for a in rest for lv in a.params}
    keep = [lv for lv in lf.constraint.logvars if lv in rest_logvars]
    n, power, projected = _uniform(lf.constraint, keep, plan)
    logtab = plan.tab(_summed, (lf.logtab, power), axis - len(lf.args))
    return _Lifted(rest, logtab, projected, lf.groups[:axis] + lf.groups[axis + 1 :]), n


def _absorb(lf: _Lifted, evidence: Mapping[GroundAtom, str], plan: _Plan) -> _Lifted:
    """Condition on evidence covering whole argument groups.

    Every argument whose instances are all observed with one shared value is
    sliced out of the table. Arguments with partially observed or
    disagreeing instances raise ("shatter first"). The constraint stays as
    it is while the remaining arguments still mention all its logvars; when
    dropping an argument orphans logvars, each surviving grounding stands
    for several absorbed ones, so the slice is raised to that count and the
    constraint projected (no single count raises
    :class:`NotCountNormalized`). Returns ``lf`` itself when no evidence
    applies.
    """
    if not evidence:
        return lf
    logtab = lf.logtab
    kept: list[PRV] = []
    kept_groups: list[frozenset] = []
    for i, (arg, group) in enumerate(zip(lf.args, lf.groups)):
        observed = [
            v for a, v in evidence.items()
            if a.name == arg.name and len(a.args) == len(arg.params) and _holds(group, a.args)
        ]
        if not observed:
            kept.append(arg)
            kept_groups.append(group)
            continue
        values = set(observed)
        if len(observed) < _count(group) or len(values) != 1:
            raise InferenceError(f"shatter first: group {arg} is not uniformly observed")
        logtab = plan.tab(np.take, (logtab,), arg.range.index(values.pop()), i - len(lf.args))
    if len(kept) == len(lf.args):
        return lf
    c = lf.constraint
    kept_logvars = {lv for a in kept for lv in a.params}
    if len(kept_logvars) < len(c.logvars):
        _, power, c = _uniform(c, [lv for lv in c.logvars if lv in kept_logvars], plan)
        logtab = plan.tab(_scaled, (logtab, power))
    return _Lifted(tuple(kept), logtab, c, tuple(kept_groups))


# ---------------------------------------------------------------------------
# propositional factors (ground route and the lifted route's second phase)


def _ground_factors(
    args: tuple[PRV, ...], logtab: int, c: Constraint, ids: dict[tuple, int]
) -> list[tuple]:
    """One ground factor per grounding; a grounding that repeats an atom is refused.

    A ground factor is a plain tuple ``(atoms, ranges, logtab)`` whose atoms
    are ids: ``ids`` maps each atom's ``(name, args)`` key to its id, and
    gives a key it lacks the next id.
    """
    ranges = tuple(a.range for a in args)
    # atoms of different names never alias, so only shared names are checked
    shared = len({a.name for a in args}) < len(args)
    out = []
    for keys in _groundings(args, c):
        atoms = tuple([ids.setdefault(key, len(ids)) for key in keys])
        if shared and len(set(atoms)) != len(atoms):
            aliased = tuple(GroundAtom(name, tuple(map(Constant, args))) for name, args in keys)
            raise InferenceError(f"aliased arguments in one grounding: {aliased}")
        out.append((atoms, ranges, logtab))
    return out


def _observed(f: tuple, atom: int, value: int, plan: _Plan) -> tuple:
    """``f`` without ``atom``'s axis, sliced at the value numbered ``value``."""
    atoms, ranges, logtab = f
    axis = atoms.index(atom)
    return (
        atoms[:axis] + atoms[axis + 1 :],
        ranges[:axis] + ranges[axis + 1 :],
        plan.tab(np.take, (logtab,), value, axis - len(atoms)),
    )


def _eliminate(
    factors: list[tuple], ids: dict[tuple, int], n_targets: int, log: list | None, plan: _Plan,
    summed: Sequence[tuple] = (),
) -> list[tuple]:
    """Propositional elimination of every non-target atom, fewest factors first.

    The factors name their atoms by the ids of ``ids``, whose first
    ``n_targets`` atoms are the targets. The other atoms are ranked once by
    their keys, in the order atoms compare (by name, then arguments), so
    ``holders`` maps each non-target id to the live factors that mention it,
    and ``heap`` orders atoms by (factor count, rank), ints only; an entry
    whose count is no longer the atom's is stale and skipped, and an atom is
    pushed again only when its count changes. A step multiplies the factors
    of the first atom as one product, which takes the first one's place,
    sums the atom out and points the product's atoms at it, so no step
    rescans the factor list. An atom in one factor needs no product and
    changes no count. The order depends on the atoms alone.

    ``summed`` are the keys of atoms summed out before grounding, each of
    which would have been in one factor. Elimination would have popped them
    in its first run, that of the atoms in one factor, in rank order; with
    a log, their records go among that run's, by key.
    """
    keys = list(ids)
    order = sorted(range(n_targets, len(keys)), key=keys.__getitem__)
    rank = [0] * len(keys)
    for r, i in enumerate(order):
        rank[i] = r
    live = dict(enumerate(factors))
    holders: dict[int, set[int]] = {}
    for j, f in live.items():
        for i in f[0]:
            if i >= n_targets:
                holders.setdefault(i, set()).add(j)
    heap = [(len(held), rank[i]) for i, held in holders.items()]
    heapq.heapify(heap)
    pending = sorted(summed) if log is not None else []
    done = 0  # pending[:done] are logged
    drops: dict[tuple[int, int], int] = {}  # (table step, axis) -> the step summing it out
    while heap:
        count, r = heapq.heappop(heap)
        i = order[r]
        if len(holders.get(i, ())) != count:
            continue
        if log is not None:
            stop = bisect.bisect(pending, keys[i], done) if count == 1 else len(pending)
            log += [OpRecord("sum_out", _ground_detail(key), 1) for key in pending[done:stop]]
            done = stop
            detail = _ground_detail(keys[i])
            log += [OpRecord("multiply", detail)] * (count - 1) + [OpRecord("sum_out", detail, 1)]
        if count == 1:
            (first,) = holders.pop(i)
            atoms, ranges, logtab = live.pop(first)
        else:
            gone = sorted(holders.pop(i))
            first = gone[0]
            atoms, ranges, logtab = _ground_product([live.pop(j) for j in gone], plan)
        axis = atoms.index(i)
        step = drops.get((logtab, axis))
        if step is None:
            step = drops[logtab, axis] = plan.tab(_logsumexp, (logtab,), axis - len(atoms))
        atoms = atoms[:axis] + atoms[axis + 1 :]
        live[first] = (atoms, ranges[:axis] + ranges[axis + 1 :], step)
        if count == 1:
            continue  # no count changed, so every heap entry is as valid as before
        for other in atoms:
            held = holders.get(other)
            if held is not None:
                n = len(held)
                held.difference_update(gone)
                held.add(first)
                if len(held) != n:  # an unchanged count keeps its valid entry
                    heapq.heappush(heap, (len(held), rank[other]))
    if log is not None:
        log += [OpRecord("sum_out", _ground_detail(key), 1) for key in pending[done:]]
    return list(live.values())


def _ground_detail(key: tuple) -> str:
    return f"ground {GroundAtom(*key)}"


def _assemble(factors: list[tuple], n_targets: int, plan: _Plan) -> int:
    """The product of the factors elimination left, its axes in target order."""
    prod = _ground_product(factors, plan)
    if set(prod[0]) != set(range(n_targets)):
        raise InferenceError("elimination left unexpected atoms behind")
    return plan.tab(_aligned, (prod[2],), prod[0], n_targets)


def _normalized(
    logtab: np.ndarray, targets: tuple[GroundAtom, ...], ranges: tuple[Range, ...]
) -> list[MarginalDistribution]:
    """One answer per world: ``logtab`` has a leading world axis over the targets' axes."""
    flat = logtab.reshape(len(logtab), -1)
    total = _logsumexp(flat, axis=1)
    if not np.all(np.isfinite(total)):
        raise InferenceError("inconsistent evidence: all joint weights are zero")
    probs = np.exp(flat - total[:, None])
    probs = probs / probs.sum(axis=1, keepdims=True)
    return [MarginalDistribution(targets, ranges, p) for p in probs]


def _validate_query(m: ParameterisedModel, q: QuerySpec) -> None:
    for atom in tuple(q.targets) + q.evidence.atoms():
        if not m.contains_atom(atom):
            raise InferenceError(f"atom {atom} not in model")
    for atom, value in q.evidence.assignments:
        m.signatures[atom.name][1].index(value)


def _ranges(m: ParameterisedModel, q: QuerySpec) -> tuple[Range, ...]:
    return tuple(m.signatures[t.name][1] for t in q.targets)


# ---------------------------------------------------------------------------
# ground variable elimination (the oracle route)


def ground_ve(m: ParameterisedModel, q: QuerySpec) -> MarginalDistribution:
    """Exact conditional marginal by propositional variable elimination.

    Grounds every parfactor, slices in the evidence, eliminates all
    non-target atoms greedily (the atom in the fewest factors first, ties by
    atom), multiplies what is left and normalizes. Its table work is a plan
    run with no exponents; no step is lifted.
    """
    _validate_query(m, q)
    plan = _Plan(q.targets, _ranges(m, q))
    ids = {(t.name, t.args): i for i, t in enumerate(q.targets)}
    observed = {ids.setdefault((a.name, a.args), len(ids)): v for a, v in q.evidence.assignments}
    factors = []
    for p in m.parfactors:
        logtab = plan.tab(_logtable, (), p.table)
        for f in _ground_factors(p.table.args, logtab, p.constraint, ids):
            for i, r in zip(f[0], f[1]):
                if i in observed:
                    f = _observed(f, i, r.index(observed[i]), plan)
            factors.append(f)
    n = len(q.targets)
    plan.finish(_assemble(_eliminate(factors, ids, n, None, plan), n, plan))
    return _run(plan, [[]])[0]


# ---------------------------------------------------------------------------
# lifted query answering: a plan and a run


def _shatter(
    parfactors: Sequence[Parfactor], mentioned: set[Constant], log: list | None, plan: _Plan
) -> list[_Lifted]:
    """Give every constant named by the query or evidence its own groups."""
    out = []
    for p in parfactors:
        parts = _peel(p.constraint, mentioned)
        if len(parts) > 1:
            _note(log, "split", f"{len(parts)} groups")
        logtab = plan.tab(_logtable, (), p.table)
        out.extend(_lifted(p.table.args, logtab, parts[s]) for s in sorted(parts))
    return out


def _refine(lifted: Sequence[_Lifted], log: list | None) -> list[_Lifted]:
    """Split until same-name argument groups are equal or disjoint everywhere."""
    lfs = list(lifted)
    while True:
        # each distinct group of a name, with the first argument that has it;
        # the first overlapping pair of those is the first pair of all entries
        by_name: dict[str, dict[frozenset, tuple[int, PRV]]] = {}
        for i, lf in enumerate(lfs):
            for arg, group in zip(lf.args, lf.groups):
                by_name.setdefault(arg.name, {}).setdefault(group, (i, arg))
        offender = None
        for name in sorted(by_name):
            for (g1, (i, a1)), (g2, (j, a2)) in itertools.combinations(by_name[name].items(), 2):
                inter = _meet(g1, g2)
                if inter:
                    offender = (i, a1, inter) if _count(inter) < _count(g1) else (j, a2, inter)
                    break
            if offender:
                break
        if offender is None:
            return lfs
        idx, arg, inter = offender
        _note(log, "split", f"refine {arg.name}")
        lf = lfs[idx]
        parts = _split(lf.constraint, arg.params, inter)
        lfs[idx : idx + 1] = [_lifted(lf.args, lf.logtab, part) for part in parts]


def _leaves(lf: _Lifted, holders: Mapping[tuple, list], target: Mapping[tuple, bool]) -> list[PRV]:
    """The private leaves of ``lf`` that phase 2 sums out before it grounds, in the order it does.

    A private leaf is a non-target argument whose unit no other live factor
    holds, whose name occurs once in ``lf`` and whose group is as large as
    the constraint. Each of its atoms is then in one ground factor, so
    elimination would sum it out of each grounding, by the same step, in its
    first run of pops. Summing it out of ``lf`` records that step once and
    leaves the constraint as it is, so grounding makes the factors those
    pops would leave. The pops go in key order, so the leaves are taken by
    name, up to the first other argument no other factor holds: its atoms
    may be in one factor in some groundings and pop first. When nothing
    elimination touches would be left, the last leaf stays: the final
    product reads the factors in the order elimination last touched them,
    and that leaf's pop is what moves the grounding into place. A factor
    whose names repeat keeps its arguments, so an aliasing error names them
    all.
    """
    names = [a.name for a in lf.args]
    if len(set(names)) < len(names):
        return []
    out = []
    for k in sorted(range(len(names)), key=names.__getitem__):
        a, g = lf.args[k], lf.groups[k]
        u = (a.name, g)
        if len(holders[u]) > 1:
            continue  # its atoms are in two factors or more: not in the first run
        if target[u] or _count(g) != lf.constraint.size:
            break
        out.append(a)
    if out and all(target[a.name, g] for a, g in zip(lf.args, lf.groups) if a not in out):
        out.pop()
    return out


def _plan(m: ParameterisedModel, q: QuerySpec, op_log: list | None = None) -> _Plan:
    """The structural half of :func:`lifted_query` on ``m``: every step but the table work.

    Shatters, refines and absorbs, picks the elimination order, runs the join
    and count checks and grounds what is left, recording the table work as
    steps, each exponent with where it comes from, and each count comparison
    a size decided. Ops go to ``op_log`` as :func:`lifted_query` documents.
    """
    _validate_query(m, q)
    mentioned = {c for atom in tuple(q.targets) + q.evidence.atoms() for c in atom.args}
    evidence = dict(q.evidence.assignments)
    plan = _Plan(q.targets, _ranges(m, q))
    lifted: list[_Lifted] = []
    for lf in _refine(_shatter(m.parfactors, mentioned, op_log, plan), op_log):
        a = _absorb(lf, evidence, plan)
        if a is not lf:
            dropped = [str(arg) for arg in lf.args if arg not in a.args]
            _note(op_log, "absorb", ",".join(dropped))
        lifted.append(a)
    targets = [(t.name, t.args) for t in q.targets]

    # phase 1: lifted elimination. After _refine same-name groups are equal or
    # disjoint, and multiply, sum-out and absorb only carry or drop groups, so
    # a unit (a name and a group) is held by exactly the factors with that
    # group. Each step reads the units off the live factors in list order,
    # which is creation order: a finished step removes its factors and appends
    # its result. ``target`` marks target units, tested once; ``stuck`` holds
    # the units whose try failed.
    target: dict[tuple[str, frozenset], bool] = {}
    stuck: set[tuple[str, frozenset]] = set()
    while True:
        holders: dict[tuple[str, frozenset], list[_Lifted]] = {}
        for lf in lifted:
            for a, g in zip(lf.args, lf.groups):
                held = holders.setdefault((a.name, g), [])
                if not held or held[-1] is not lf:
                    held.append(lf)
        costs = {}
        for u, held in holders.items():
            if u not in target:
                target[u] = any(n == u[0] and _holds(u[1], t) for n, t in targets)
            if not (target[u] or u in stuck):
                costs[u] = (sum(lf.constraint.size for lf in held), u[0])
        if not costs:
            break
        # fewest groundings, then name, then least instance; same-name
        # candidates are disjoint, so this orders them as sorting whole sets
        # would, and the least instance is read only on a tie
        best = min(costs.values())
        tied = [u for u, c in costs.items() if c == best]
        unit = tied[0] if len(tied) == 1 else min(tied, key=lambda u: (_least(u[1]), _count(u[1])))
        factors = holders[unit]
        chosen = [lf.constraint for lf in factors]
        for u in costs:
            if u != unit:
                plan.check("pair", [lf.constraint for lf in holders[u]], chosen)
        name, instances = unit
        mark = len(plan.steps)
        try:
            prod = factors[0]
            for lf in factors[1:]:
                prod = _multiply(prod, lf, plan)
                _note(op_log, "multiply", name)
            hits = [a for a, g in zip(prod.args, prod.groups) if a.name == name and g == instances]
            if len(hits) != 1:
                raise ConstraintsMisaligned(f"group {name} is ambiguous after multiply")
            result, n = _sum_out(prod, hits[0], plan)
        except (ConstraintsMisaligned, NotCountNormalized) as exc:
            plan.drop(mark)
            _note(op_log, "ground", f"{name}: {exc}")
            stuck.add(unit)
            continue
        _note(op_log, "sum_out", name, exponent=n)
        lifted = [lf for lf in lifted if all(lf is not f for f in factors)] + [result]

    # phase 2: sum out each factor's private leaves (``holders`` is the last
    # round's, over the factors left), ground what is left and eliminate it
    # propositionally
    plan.batchable = all(_inside(lf.constraint, mentioned) for lf in lifted)
    ids = {key: i for i, key in enumerate(targets)}
    grounds: list[tuple] = []
    summed: list[tuple] = []
    for lf in lifted:
        args, logtab = lf.args, lf.logtab
        for leaf in _leaves(lf, holders, target):
            axis = args.index(leaf)
            logtab = plan.tab(_logsumexp, (logtab,), axis - len(args))
            args = args[:axis] + args[axis + 1 :]
            if op_log is not None:
                summed += [key for (key,) in _groundings((leaf,), lf.constraint)]
        grounds += _ground_factors(args, logtab, lf.constraint, ids)
    n = len(q.targets)
    plan.finish(_assemble(_eliminate(grounds, ids, n, op_log, plan, summed), n, plan))
    return plan


def _tables(plan: _Plan, exponents) -> np.ndarray:
    """The result's table per world: the plan's steps at once over one row of ``exponents`` per world."""
    exponents = np.asarray(exponents, dtype=float)
    tabs: list[np.ndarray | None] = [None] * len(plan.steps)
    for i, (fn, refs, params) in enumerate(plan.steps):
        tabs[i] = exponents[:, params[0]] if fn is None else fn(*map(tabs.__getitem__, refs), *params)
        for r in refs:
            if plan.last[r] == i:
                tabs[r] = None
    final = tabs[plan.result]
    return np.broadcast_to(final, (len(exponents),) + final.shape[1:])


def _run(plan: _Plan, exponents) -> list[MarginalDistribution]:
    """One answer per row of ``exponents``: the normalized tables of :func:`_tables`."""
    return _normalized(_tables(plan, exponents), plan.targets, plan.ranges)


def lifted_query(
    m: ParameterisedModel, q: QuerySpec, *, op_log: list | None = None
) -> MarginalDistribution:
    """Exact conditional marginal with lifted elimination where possible.

    Pipeline: shatter on the constants mentioned by the query and evidence,
    absorb evidence, then repeatedly pick the cheapest non-target group
    (fewest covered groundings, ties by name), multiply the parfactors
    containing it and sum it out. A group whose multiply or sum-out fails a
    lifted precondition is noted as stuck and skipped from then on. When no
    group is left, the remaining factors are grounded and their non-target
    atoms eliminated as in :func:`ground_ve`. Matches :func:`ground_ve`
    entrywise to within 1e-9. This is the run of the model's own plan: a
    batch of one world.

    Pass a list as ``op_log`` to record every operation performed; a
    ``ground`` record names each stuck group and why it is stuck.
    """
    plan = _plan(m, q, op_log)
    return _run(plan, [plan.exponents])[0]
