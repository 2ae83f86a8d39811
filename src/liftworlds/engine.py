"""Exact query answering on one parameterised model.

Two routes compute every marginal. ``ground_ve`` expands all parfactors into
ground factors and runs propositional variable elimination; it embodies the
reference semantics (the normalized product of all ground factors) and
serves as the correctness oracle for the fast path. ``lifted_query``
eliminates whole groups of interchangeable randvar instances at once: it
sums out one representative and raises the result to the number of
instances covered, so its cost tracks the number of parfactor groups rather
than the number of constants.

The lifted toolbox is deliberately small: lifted sum-out, lifted multiply,
evidence absorption, and one partition routine that groups a constraint's
tuples by a key (public splitting, shattering on query constants, refining
overlapping groups and the one-grounding-at-a-time absorb of a ragged
constraint all go through it). Each operator checks the counting conditions
that make it exact:

* multiply requires the join of the two constraints to pair the groundings
  of both inputs one-to-one, otherwise potentials would be counted with the
  wrong multiplicity;
* sum-out requires every instance of the summed-out PRV to live in exactly
  one grounding, and every kept tuple to extend to the same number of
  groundings (that shared count is the exponent).

When a condition fails, the factors involved are grounded on the spot and
their instances are eliminated propositionally, so answers stay exact while
liftedness degrades. Potentials travel in log space (an exponent of a few
hundred overflows linear doubles); the public operators accept and return
ordinary linear tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConstraintsMisaligned, InferenceError, NotCountNormalized, ValidationError
from .model import (
    Constraint,
    ConstraintKind,
    GroundAtom,
    Logvar,
    Constant,
    Parfactor,
    ParameterisedModel,
    PotentialTable,
    PRV,
    Range,
    conditional_count,
    project,
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

    @classmethod
    def from_mapping(cls, mapping: Mapping[GroundAtom, str]) -> "Evidence":
        return cls(tuple(mapping.items()))

    def atoms(self) -> tuple[GroundAtom, ...]:
        return tuple(a for a, _ in self.assignments)

    def value_of(self, atom: GroundAtom) -> str | None:
        for a, v in self.assignments:
            if a == atom:
                return v
        return None

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
        if len(assignment) != len(self.ranges):
            raise ValidationError("assignment length does not match targets")
        idx = 0
        for r, value in zip(self.ranges, assignment):
            idx = idx * len(r) + r.index(value)
        return float(self.probs[idx])

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


OpLog = list  # list[OpRecord]; pass a list to lifted_query to collect one


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
    groups: tuple[frozenset, ...] = field(init=False)  # each argument's instances

    def __post_init__(self):
        self.groups = tuple(_arg_instances(self.constraint, a) for a in self.args)


def _to_lifted(p: Parfactor) -> _Lifted:
    if p.constraint.kind is not ConstraintKind.EXTENSIONAL:
        raise ValidationError("constraint not grounded")
    return _Lifted(p.table.args, _log(p.table.as_array()), p.constraint)


def _to_parfactor(lf: _Lifted) -> Parfactor:
    return Parfactor(PotentialTable(lf.args, np.exp(lf.logtab).ravel()), lf.constraint)


def _arg_positions(c: Constraint, arg: PRV) -> list[int]:
    return [c.position(lv) for lv in arg.params]


def _arg_instances(c: Constraint, arg: PRV) -> frozenset[tuple[Constant, ...]]:
    pos = _arg_positions(c, arg)
    return frozenset(tuple(t[i] for i in pos) for t in c.tuples)


def _partition(p: Parfactor, key: Callable[[tuple], Hashable]) -> dict[Hashable, Parfactor]:
    """One parfactor per distinct ``key(tuple)``, in first-seen order.

    A parfactor whose tuples all share one key comes back as it is.
    """
    groups: dict[Hashable, list[tuple]] = {}
    for t in p.constraint.tuples:
        groups.setdefault(key(t), []).append(t)
    if len(groups) == 1:
        return dict.fromkeys(groups, p)
    lv = p.constraint.logvars
    return {k: Parfactor(p.table, Constraint.extensional(lv, ts)) for k, ts in groups.items()}


def _join(c1: Constraint, c2: Constraint) -> Constraint:
    shared = [lv for lv in c2.logvars if lv in c1.logvars]
    extra = [lv for lv in c2.logvars if lv not in c1.logvars]
    out_logvars = c1.logvars + tuple(extra)
    k2 = [c2.position(lv) for lv in shared]
    r2 = [c2.position(lv) for lv in extra]
    by_key: dict[tuple, list[tuple]] = {}
    for t in c2.tuples:
        by_key.setdefault(tuple(t[i] for i in k2), []).append(tuple(t[i] for i in r2))
    k1 = [c1.position(lv) for lv in shared]
    joined = []
    for t in c1.tuples:
        for rest in by_key.get(tuple(t[i] for i in k1), ()):
            joined.append(t + rest)
    if not joined:
        raise ConstraintsMisaligned("constraints misaligned: empty join")
    return Constraint.extensional(out_logvars, joined)


def _is_lossless(join: Constraint, c: Constraint) -> bool:
    extra = [lv for lv in join.logvars if lv not in c.logvars]
    try:
        return project(join, c.logvars) == c and conditional_count(join, extra) == 1
    except NotCountNormalized:
        return False


def _multiply(a: _Lifted, b: _Lifted) -> _Lifted:
    join = _join(a.constraint, b.constraint)
    if not (_is_lossless(join, a.constraint) and _is_lossless(join, b.constraint)):
        raise ConstraintsMisaligned(
            "constraints misaligned: join does not pair groundings one-to-one"
        )
    args = a.args + tuple(x for x in b.args if x not in a.args)
    logtab = _aligned(a.logtab, a.args, args) + _aligned(b.logtab, b.args, args)
    return _Lifted(args, logtab, join)


def _sum_out(lf: _Lifted, prv: PRV) -> tuple[_Lifted, int]:
    hits = [i for i, a in enumerate(lf.args) if a == prv]
    if len(hits) != 1:
        raise ValidationError(f"{prv} must occur exactly once among the arguments")
    axis = hits[0]
    rest = tuple(a for i, a in enumerate(lf.args) if i != axis)
    rest_logvars = {lv for a in rest for lv in a.params}
    keep = [lv for lv in lf.constraint.logvars if lv in rest_logvars]
    eliminated = [lv for lv in lf.constraint.logvars if lv not in rest_logvars]
    # each instance of prv may appear in only one grounding, or a plain sum is wrong
    private = [lv for lv in lf.constraint.logvars if lv not in prv.params]
    if conditional_count(lf.constraint, private) != 1:
        raise NotCountNormalized(
            f"instances of {prv} are shared between groundings; sum-out needs grounding"
        )
    n = conditional_count(lf.constraint, eliminated)
    logtab = _logsumexp(lf.logtab, axis) * n
    return _Lifted(rest, logtab, project(lf.constraint, keep)), n


# ---------------------------------------------------------------------------
# public lifted operators (linear tables in, linear tables out)


def lift_multiply(g1: Parfactor, g2: Parfactor) -> Parfactor:
    """Pointwise product over the argument union, constraints joined.

    Raises :class:`ConstraintsMisaligned` when the join would not pair the
    groundings of both inputs one-to-one; callers fall back to grounding.
    """
    return _to_parfactor(_multiply(_to_lifted(g1), _to_lifted(g2)))


def lift_sum_out(g: Parfactor, a: PRV) -> Parfactor:
    """Sum out all instances of ``a`` at once.

    The table is summed over ``a``'s axis and raised entrywise to the number
    of groundings each kept tuple stands for; the constraint is projected
    onto the remaining logvars. Raises :class:`NotCountNormalized` when no
    single exponent exists.
    """
    lf, _ = _sum_out(_to_lifted(g), a)
    return _to_parfactor(lf)


def split(
    g: Parfactor, x: Logvar, constants: Iterable[Constant]
) -> tuple[Parfactor | None, Parfactor | None]:
    """Partition the constraint on whether the ``x`` component is in ``constants``.

    Either part may be ``None`` when empty; the two parts' groundings
    partition the groundings of ``g``.
    """
    if g.constraint.kind is not ConstraintKind.EXTENSIONAL:
        raise ValidationError("can only split an extensional constraint")
    pos = g.constraint.position(x)
    wanted = set(constants)
    parts = _partition(g, lambda t: t[pos] in wanted)
    return parts.get(True), parts.get(False)


def absorb(g: Parfactor, ev: Evidence) -> Parfactor:
    """Condition on evidence covering whole argument groups.

    Every argument whose instances are all observed with one shared value is
    sliced out of the table. Arguments with partially observed or
    disagreeing instances raise ("shatter first"). The constraint stays as
    it is while the remaining arguments still mention all its logvars; when
    dropping an argument orphans logvars, each surviving grounding stands
    for several absorbed ones, so the slice is raised to that count and the
    constraint projected (no single count raises
    :class:`NotCountNormalized`). Returns ``g`` itself when no evidence
    applies.
    """
    c = g.constraint
    if c.kind is not ConstraintKind.EXTENSIONAL:
        raise ValidationError("constraint not grounded")
    if not len(ev):
        return g
    tab = g.table.as_array()
    kept: list[PRV] = []
    axis = 0
    changed = False
    for arg in g.table.args:
        pos = _arg_positions(c, arg)
        instances = {GroundAtom(arg.name, tuple(t[i] for i in pos)) for t in c.tuples}
        observed = {a: ev.value_of(a) for a in instances if ev.value_of(a) is not None}
        if not observed:
            kept.append(arg)
            axis += 1
            continue
        values = set(observed.values())
        if len(observed) < len(instances) or len(values) != 1:
            raise InferenceError(f"shatter first: group {arg} is not uniformly observed")
        tab = np.take(tab, arg.range.index(values.pop()), axis=axis)
        changed = True
    if not changed:
        return g
    kept_logvars = {lv for a in kept for lv in a.params}
    orphaned = [lv for lv in c.logvars if lv not in kept_logvars]
    if orphaned:
        n = conditional_count(c, orphaned)
        if n > 1:
            tab = tab**n
        c = project(c, [lv for lv in c.logvars if lv in kept_logvars])
    return Parfactor(PotentialTable(tuple(kept), np.ravel(tab)), c)


# ---------------------------------------------------------------------------
# propositional factors (ground route and lifted fallback)


@dataclass
class _Ground:
    atoms: tuple[GroundAtom, ...]
    ranges: tuple[Range, ...]
    logtab: np.ndarray


def _ground_from_lifted(lf: _Lifted) -> list[_Ground]:
    pos = {lv: i for i, lv in enumerate(lf.constraint.logvars)}
    ranges = tuple(a.range for a in lf.args)
    out = []
    for t in lf.constraint.tuples:
        atoms = tuple(
            GroundAtom(a.name, tuple(t[pos[lv]] for lv in a.params)) for a in lf.args
        )
        if len(set(atoms)) != len(atoms):
            raise InferenceError(f"aliased arguments in one grounding: {atoms}")
        out.append(_Ground(atoms, ranges, lf.logtab))
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


def _eliminate_atom(factors: list[_Ground], atom: GroundAtom, log: list | None) -> list[_Ground]:
    """Multiply the factors that mention ``atom``, then sum it out."""
    touching = [f for f in factors if atom in f.atoms]
    prod = touching[0]
    for other in touching[1:]:
        prod = _ground_multiply(prod, other)
        _note(log, "multiply", f"ground {atom}")
    _note(log, "sum_out", f"ground {atom}", exponent=1)
    return [f for f in factors if atom not in f.atoms] + [_ground_sum_out(prod, atom)]


def _eliminate_atoms(factors: list[_Ground], targets: Sequence[GroundAtom]) -> list[_Ground]:
    """Propositional elimination of every non-target atom, smallest scope first."""
    protected = set(targets)
    factors = list(factors)
    while True:
        ranges: dict[GroundAtom, Range] = {}
        for f in factors:
            ranges.update(zip(f.atoms, f.ranges))
        candidates = [a for a in ranges if a not in protected]
        if not candidates:
            return factors

        def scope_cost(atom: GroundAtom) -> int:
            scope: set[GroundAtom] = set()
            for f in factors:
                if atom in f.atoms:
                    scope.update(f.atoms)
            scope.discard(atom)
            cost = 1
            for a in scope:
                cost *= len(ranges[a])
            return cost

        victim = min(candidates, key=lambda a: (scope_cost(a), a))
        factors = _eliminate_atom(factors, victim, None)


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
    non-target atoms greedily (smallest resulting scope first, deterministic
    tie-break), multiplies what is left and normalizes.
    """
    _validate_query(m, q)
    observed = dict(q.evidence.assignments)
    factors: list[_Ground] = []
    for gf in m.ground():
        if len(set(gf.atoms)) != len(gf.atoms):
            raise InferenceError(f"aliased arguments in one grounding: {gf.atoms}")
        f = _Ground(gf.atoms, tuple(a.range for a in gf.table.args), _log(gf.table.as_array()))
        for atom in gf.atoms:
            if atom in observed:
                f = _ground_slice(f, atom, observed[atom])
        factors.append(f)
    factors = _eliminate_atoms(factors, q.targets)
    return _assemble(factors, q.targets, m.signatures)


# ---------------------------------------------------------------------------
# lifted query answering


def _shatter(parfactors: Sequence[Parfactor], mentioned: set[Constant], log: list | None):
    """Give every constant named by the query or evidence its own groups."""
    out = []
    for p in parfactors:
        if not mentioned or p.constraint.kind is not ConstraintKind.EXTENSIONAL:
            out.append(p)
            continue
        parts = _partition(p, lambda t: tuple(c if c in mentioned else None for c in t))
        if len(parts) > 1:
            _note(log, "split", f"{len(parts)} groups")
        order = sorted(parts, key=lambda s: tuple(c.name if c else "" for c in s))
        out.extend(parts[s] for s in order)
    return out


def _refine(parfactors: Sequence[Parfactor], log: list | None) -> list[Parfactor]:
    """Split until same-name argument groups are equal or disjoint everywhere."""
    pfs = list(parfactors)
    while True:
        by_name: dict[str, list[tuple[int, PRV, frozenset]]] = {}
        for i, p in enumerate(pfs):
            for arg in p.table.args:
                by_name.setdefault(arg.name, []).append(
                    (i, arg, _arg_instances(p.constraint, arg))
                )
        offender = None
        for name in sorted(by_name):
            entries = by_name[name]
            for (i, a1, s1), (j, a2, s2) in itertools.combinations(entries, 2):
                if s1 & s2 and s1 != s2:
                    inter = s1 & s2
                    offender = (i, a1, inter) if s1 - inter else (j, a2, inter)
                    break
            if offender:
                break
        if offender is None:
            return pfs
        idx, arg, inter = offender
        _note(log, "split", f"refine {arg.name}")
        pos = _arg_positions(pfs[idx].constraint, arg)
        parts = _partition(pfs[idx], lambda t: tuple(t[i] for i in pos) in inter)
        pfs[idx : idx + 1] = [parts[True], parts[False]]


def lifted_query(
    m: ParameterisedModel, q: QuerySpec, *, op_log: list | None = None
) -> MarginalDistribution:
    """Exact conditional marginal with lifted elimination where possible.

    Pipeline: shatter on the constants mentioned by the query and evidence,
    absorb evidence, then repeatedly pick the cheapest non-target group
    (fewest covered groundings, ties by name), multiply the parfactors
    containing it and sum it out. Groups where a lifted precondition fails
    are grounded and eliminated propositionally instead. Matches
    :func:`ground_ve` entrywise to within 1e-9.

    Pass a list as ``op_log`` to record every lifted operation performed.
    """
    _validate_query(m, q)
    mentioned = {c for atom in tuple(q.targets) + q.evidence.atoms() for c in atom.args}
    pfs = _shatter(m.parfactors, mentioned, op_log)
    pfs = _refine(pfs, op_log)
    absorbed = []
    for p in pfs:
        try:
            a = absorb(p, q.evidence)
            if a is not p:
                dropped = [str(arg) for arg in p.table.args if arg not in a.table.args]
                _note(op_log, "absorb", ",".join(dropped))
            absorbed.append(a)
        except NotCountNormalized:
            # ragged constraint: absorb one grounding at a time
            _note(op_log, "ground", "absorb")
            absorbed.extend(absorb(one, q.evidence) for one in _partition(p, lambda t: t).values())
    lifted: list[_Lifted] = [_to_lifted(p) for p in absorbed]
    grounds: list[_Ground] = []
    targets = [(t.name, t.args) for t in q.targets]

    while True:
        # (name, args) of every ground atom -> the ground factors mentioning it
        ground_ids: dict[tuple[str, tuple], list[int]] = {}
        for j, gf in enumerate(grounds):
            for atom in gf.atoms:
                ground_ids.setdefault((atom.name, atom.args), []).append(j)
        units = {(a.name, g) for lf in lifted for a, g in zip(lf.args, lf.groups)}
        units.update((name, frozenset({args})) for name, args in ground_ids)
        candidates = [u for u in units if not any(n == u[0] and a in u[1] for n, a in targets)]
        if not candidates:
            break

        # membership is by overlap: an earlier fallback may have broken a
        # group into singleton ground atoms that still belong to it
        def members(u):
            name, insts = u
            l_ids, exact = [], True
            for i, lf in enumerate(lifted):
                for arg, have in zip(lf.args, lf.groups):
                    if arg.name == name and not have.isdisjoint(insts):
                        l_ids.append(i)
                        exact = exact and have == insts
                        break
            if not ground_ids:
                return l_ids, [], exact
            g_ids = sorted({j for inst in insts for j in ground_ids.get((name, inst), ())})
            return l_ids, g_ids, exact

        membership = {u: members(u) for u in candidates}

        def cost(u):
            l_ids, g_ids, _ = membership[u]
            return sum(lifted[i].constraint.size for i in l_ids) + len(g_ids)

        # same-name candidates are disjoint, or a ground singleton inside a
        # lifted group, so this orders them as sorting whole sets would
        unit = min(candidates, key=lambda u: (cost(u), u[0], min(u[1]), len(u[1])))
        name, instances = unit
        l_ids, g_ids, exact = membership[unit]
        if not g_ids and exact:
            try:
                prod = lifted[l_ids[0]]
                for i in l_ids[1:]:
                    prod = _multiply(prod, lifted[i])
                    _note(op_log, "multiply", name)
                hits = [
                    a for a, g in zip(prod.args, prod.groups) if a.name == name and g == instances
                ]
                if len(hits) != 1:
                    raise ConstraintsMisaligned(f"group {name} is ambiguous after multiply")
                result, n = _sum_out(prod, hits[0])
                _note(op_log, "sum_out", name, exponent=n)
                lifted = [lf for i, lf in enumerate(lifted) if i not in l_ids] + [result]
                continue
            except (ConstraintsMisaligned, NotCountNormalized) as exc:
                _note(op_log, "ground", f"{name}: {exc}")
        else:
            _note(op_log, "ground", f"{name}: group overlaps grounded factors")
        # propositional fallback for this group
        pool = [grounds[j] for j in g_ids]
        for i in l_ids:
            pool.extend(_ground_from_lifted(lifted[i]))
        lifted = [lf for i, lf in enumerate(lifted) if i not in l_ids]
        grounds = [gf for j, gf in enumerate(grounds) if j not in g_ids]
        for atom in sorted(GroundAtom(name, inst) for inst in instances):
            pool = _eliminate_atom(pool, atom, op_log)
        grounds.extend(pool)

    # final assembly over the surviving target groups
    if grounds:
        final = grounds + [g for lf in lifted for g in _ground_from_lifted(lf)]
    else:
        try:
            prod = lifted[0]
            for lf in lifted[1:]:
                prod = _multiply(prod, lf)
                _note(op_log, "multiply", "assemble")
            final = _ground_from_lifted(prod)
        except ConstraintsMisaligned:
            _note(op_log, "ground", "assemble")
            final = [g for lf in lifted for g in _ground_from_lifted(lf)]
    return _assemble(final, q.targets, m.signatures)
