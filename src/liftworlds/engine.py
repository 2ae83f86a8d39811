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
each block; refining overlapping groups cuts blocks on a group. A factor's
groups (each argument's instance set, in block form) are computed once,
when the factor is made over a new constraint; multiply, sum-out and absorb
carry them over, since none of them changes the instances of an argument it
keeps. No step of the lifted phase lists the tuples of a product; only
grounding does. Each operator checks the counting conditions that make it
exact:

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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConstraintsMisaligned, InferenceError, NotCountNormalized, ValidationError
from .model import (
    Constraint,
    GroundAtom,
    Constant,
    Parfactor,
    ParameterisedModel,
    PRV,
    Range,
    _count,
    _flat_index,
    _group,
    _groundings,
    _holds,
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
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        expected = int(np.prod([len(r) for r in self.ranges], dtype=int))
        if probs.size != expected:
            raise ValidationError("probability vector does not match the joint range")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
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
# table helpers

def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis))
    return out + np.squeeze(m, axis=axis)


def _log(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)


def _aligned(tab: np.ndarray, src: Sequence, dst: Sequence) -> np.ndarray:
    """View of ``tab`` (shaped by src) broadcastable over the dst axis order."""
    perm = [src.index(x) for x in dst if x in src]
    idx = tuple(slice(None) if x in src else None for x in dst)
    return np.transpose(tab, perm)[idx]


# ---------------------------------------------------------------------------
# lifted factors (internal log-space representation)


@dataclass
class _Lifted:
    args: tuple[PRV, ...]
    logtab: np.ndarray  # shape: one axis per argument range
    constraint: Constraint
    groups: tuple[frozenset, ...]  # each argument's instances, as blocks


def _lifted(args: tuple[PRV, ...], logtab: np.ndarray, c: Constraint) -> _Lifted:
    """A factor over a new constraint: the one place groups are computed.

    Operators that keep a constraint's instance sets (a one-to-one join, a
    projection onto the remaining arguments) carry their input's groups.
    """
    return _Lifted(args, logtab, c, tuple(_group(c, a.params) for a in args))


def _multiply(a: _Lifted, b: _Lifted) -> _Lifted:
    join = _join(a.constraint, b.constraint)
    new = [i for i, x in enumerate(b.args) if x not in a.args]
    args = a.args + tuple(b.args[i] for i in new)
    logtab = _aligned(a.logtab, a.args, args) + _aligned(b.logtab, b.args, args)
    return _Lifted(args, logtab, join, a.groups + tuple(b.groups[i] for i in new))


def _sum_out(lf: _Lifted, prv: PRV) -> tuple[_Lifted, int]:
    hits = [i for i, a in enumerate(lf.args) if a == prv]
    if len(hits) != 1:
        raise ValidationError(f"{prv} must occur exactly once among the arguments")
    axis = hits[0]
    # each instance of prv may appear in only one grounding, or a plain sum is wrong
    if _count(lf.groups[axis]) != lf.constraint.size:
        raise NotCountNormalized(
            f"instances of {prv} are shared between groundings; sum-out needs grounding"
        )
    rest = lf.args[:axis] + lf.args[axis + 1 :]
    rest_logvars = {lv for a in rest for lv in a.params}
    keep = [lv for lv in lf.constraint.logvars if lv in rest_logvars]
    n, projected = _uniform_count(lf.constraint, keep)
    logtab = _logsumexp(lf.logtab, axis) * n
    return _Lifted(rest, logtab, projected, lf.groups[:axis] + lf.groups[axis + 1 :]), n


def _absorb(lf: _Lifted, evidence: Mapping[GroundAtom, str]) -> _Lifted:
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
    for arg, group in zip(lf.args, lf.groups):
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
        logtab = np.take(logtab, arg.range.index(values.pop()), axis=len(kept))
    if logtab is lf.logtab:
        return lf
    c = lf.constraint
    kept_logvars = {lv for a in kept for lv in a.params}
    if len(kept_logvars) < len(c.logvars):
        n, c = _uniform_count(c, [lv for lv in c.logvars if lv in kept_logvars])
        logtab = logtab * n
    return _Lifted(tuple(kept), logtab, c, tuple(kept_groups))


# ---------------------------------------------------------------------------
# propositional factors (ground route and the lifted route's second phase)


@dataclass
class _Ground:
    atoms: tuple[GroundAtom, ...]
    ranges: tuple[Range, ...]
    logtab: np.ndarray


def _ground_factors(
    args: tuple[PRV, ...], logtab: np.ndarray, c: Constraint
) -> list[_Ground]:
    """One ground factor per grounding; a grounding that repeats an atom is refused."""
    ranges = tuple(a.range for a in args)
    out = []
    for atoms in _groundings(args, c):
        if len(set(atoms)) != len(atoms):
            raise InferenceError(f"aliased arguments in one grounding: {atoms}")
        out.append(_Ground(atoms, ranges, logtab))
    return out


def _ground_multiply(a: _Ground, b: _Ground) -> _Ground:
    atoms = a.atoms + tuple(x for x in b.atoms if x not in a.atoms)
    ranges = a.ranges + tuple(r for x, r in zip(b.atoms, b.ranges) if x not in a.atoms)
    logtab = _aligned(a.logtab, a.atoms, atoms) + _aligned(b.logtab, b.atoms, atoms)
    return _Ground(atoms, ranges, logtab)


def _ground_sum_out(f: _Ground, atom: GroundAtom) -> _Ground:
    axis = f.atoms.index(atom)
    return _Ground(
        f.atoms[:axis] + f.atoms[axis + 1 :],
        f.ranges[:axis] + f.ranges[axis + 1 :],
        _logsumexp(f.logtab, axis),
    )


def _ground_slice(f: _Ground, atom: GroundAtom, value: str) -> _Ground:
    axis = f.atoms.index(atom)
    vi = f.ranges[axis].index(value)
    return _Ground(
        f.atoms[:axis] + f.atoms[axis + 1 :],
        f.ranges[:axis] + f.ranges[axis + 1 :],
        np.take(f.logtab, vi, axis=axis),
    )


def _eliminate(
    factors: list[_Ground], targets: Sequence[GroundAtom], log: list | None
) -> list[_Ground]:
    """Propositional elimination of every non-target atom, fewest factors first.

    ``holders`` maps each non-target atom to the live factors that mention
    it, and ``heap`` orders atoms by (factor count, atom); an entry whose
    count is no longer the atom's is stale and skipped. A step multiplies the
    factors of the first atom into the first of them, sums the atom out and
    points the product's atoms at it, so no step rescans the factor list.
    """
    live = dict(enumerate(factors))
    protected = set(targets)
    holders: dict[GroundAtom, set[int]] = {}
    for i, f in live.items():
        for atom in f.atoms:
            if atom not in protected:
                holders.setdefault(atom, set()).add(i)
    heap = [(len(ids), atom) for atom, ids in holders.items()]
    heapq.heapify(heap)
    while heap:
        count, atom = heapq.heappop(heap)
        if len(holders.get(atom, ())) != count:
            continue
        first, *rest = sorted(holders.pop(atom))
        prod = live.pop(first)
        for i in rest:
            prod = _ground_multiply(prod, live.pop(i))
            _note(log, "multiply", f"ground {atom}")
        _note(log, "sum_out", f"ground {atom}", exponent=1)
        live[first] = _ground_sum_out(prod, atom)
        for other in live[first].atoms:
            if other in holders:
                holders[other].difference_update(rest)
                holders[other].add(first)
                heapq.heappush(heap, (len(holders[other]), other))
    return list(live.values())


def _assemble(
    factors: list[_Ground], targets: tuple[GroundAtom, ...], sigs: Mapping[str, tuple[int, Range]]
) -> MarginalDistribution:
    prod = factors[0]
    for other in factors[1:]:
        prod = _ground_multiply(prod, other)
    if set(prod.atoms) != set(targets):
        raise InferenceError("elimination left unexpected atoms behind")
    perm = [prod.atoms.index(t) for t in targets]
    logtab = np.transpose(prod.logtab, perm)
    total = _logsumexp(logtab.reshape(1, -1), axis=1).item()
    if not np.isfinite(total):
        raise InferenceError("inconsistent evidence: all joint weights are zero")
    probs = np.exp(logtab - total).ravel()
    probs = probs / probs.sum()
    ranges = tuple(sigs[t.name][1] for t in targets)
    return MarginalDistribution(targets, ranges, probs)


def _validate_query(m: ParameterisedModel, q: QuerySpec) -> None:
    sigs = m.signatures
    for atom in tuple(q.targets) + q.evidence.atoms():
        if atom.name not in sigs or len(atom.args) != sigs[atom.name][0]:
            raise InferenceError(f"atom {atom} not in model")
        if not m.contains_atom(atom):
            raise InferenceError(f"atom {atom} not in model")
    for atom, value in q.evidence.assignments:
        sigs[atom.name][1].index(value)


# ---------------------------------------------------------------------------
# ground variable elimination (the oracle route)


def ground_ve(m: ParameterisedModel, q: QuerySpec) -> MarginalDistribution:
    """Exact conditional marginal by propositional variable elimination.

    Grounds every parfactor, slices in the evidence, eliminates all
    non-target atoms greedily (the atom in the fewest factors first, ties by
    atom), multiplies what is left and normalizes.
    """
    _validate_query(m, q)
    observed = dict(q.evidence.assignments)
    factors: list[_Ground] = []
    for p in m.parfactors:
        for f in _ground_factors(p.table.args, _log(p.table.as_array()), p.constraint):
            for atom in f.atoms:
                if atom in observed:
                    f = _ground_slice(f, atom, observed[atom])
            factors.append(f)
    return _assemble(_eliminate(factors, q.targets, None), q.targets, m.signatures)


# ---------------------------------------------------------------------------
# lifted query answering


def _shatter(
    parfactors: Sequence[Parfactor], mentioned: set[Constant], log: list | None
) -> list[_Lifted]:
    """Give every constant named by the query or evidence its own groups."""
    out = []
    for p in parfactors:
        parts = _peel(p.constraint, mentioned)
        if len(parts) > 1:
            _note(log, "split", f"{len(parts)} groups")
        logtab = _log(p.table.as_array())
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
    entrywise to within 1e-9.

    Pass a list as ``op_log`` to record every operation performed; a
    ``ground`` record names each stuck group and why it is stuck.
    """
    _validate_query(m, q)
    mentioned = {c for atom in tuple(q.targets) + q.evidence.atoms() for c in atom.args}
    evidence = dict(q.evidence.assignments)
    lifted: list[_Lifted] = []
    for lf in _refine(_shatter(m.parfactors, mentioned, op_log), op_log):
        a = _absorb(lf, evidence)
        if a is not lf:
            dropped = [str(arg) for arg in lf.args if arg not in a.args]
            _note(op_log, "absorb", ",".join(dropped))
        lifted.append(a)
    targets = [(t.name, t.args) for t in q.targets]
    stuck: set[tuple[str, frozenset]] = set()

    # phase 1: lifted elimination. After _refine same-name groups are equal or
    # disjoint, and multiply, sum-out and absorb only carry or drop groups, so
    # a unit's holders are exactly the factors with that group
    while True:
        holders: dict[tuple[str, frozenset], list[int]] = {}
        for i, lf in enumerate(lifted):
            for a, g in zip(lf.args, lf.groups):
                ids = holders.setdefault((a.name, g), [])
                if not ids or ids[-1] != i:
                    ids.append(i)
        costs = {
            u: (sum(lifted[i].constraint.size for i in ids), u[0])
            for u, ids in holders.items()
            if u not in stuck and not any(n == u[0] and _holds(u[1], a) for n, a in targets)
        }
        if not costs:
            break
        # fewest groundings, then name, then least instance; same-name
        # candidates are disjoint, so this orders them as sorting whole sets
        # would, and the least instance is read only on a tie
        best = min(costs.values())
        tied = [u for u, c in costs.items() if c == best]
        unit = tied[0] if len(tied) == 1 else min(tied, key=lambda u: (_least(u[1]), _count(u[1])))
        name, instances = unit
        ids = holders[unit]
        try:
            prod = lifted[ids[0]]
            for i in ids[1:]:
                prod = _multiply(prod, lifted[i])
                _note(op_log, "multiply", name)
            hits = [a for a, g in zip(prod.args, prod.groups) if a.name == name and g == instances]
            if len(hits) != 1:
                raise ConstraintsMisaligned(f"group {name} is ambiguous after multiply")
            result, n = _sum_out(prod, hits[0])
        except (ConstraintsMisaligned, NotCountNormalized) as exc:
            _note(op_log, "ground", f"{name}: {exc}")
            stuck.add(unit)
            continue
        _note(op_log, "sum_out", name, exponent=n)
        lifted = [lf for i, lf in enumerate(lifted) if i not in ids] + [result]

    # phase 2: ground what is left and eliminate it propositionally
    grounds = [g for lf in lifted for g in _ground_factors(lf.args, lf.logtab, lf.constraint)]
    return _assemble(_eliminate(grounds, q.targets, op_log), q.targets, m.signatures)
