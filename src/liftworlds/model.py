"""Value types and grounding machinery for parameterised factor models.

A parfactor packages a dense potential table over parameterised random
variables (PRVs) with a constraint: the logvar bindings the table applies
to. A constraint is empty exactly when it has no tuples. A template model is
the same structure with every constraint left empty; a parameterised model
has every constraint filled in, so it can be grounded into ordinary
propositional factors.

Table layout is fixed once and for all: the flat value array is row-major
over the argument ranges with the *last* argument varying fastest, i.e.
``values.reshape(shape)`` indexes as ``[i_arg0, ..., i_argN]``. File formats
and every operation in this package rely on that order.

Logvars and constants are their names: both subclass ``str``, so equality,
hashing and order are the string's, and ``Constant("x") == "x"``. No
container mixes the two kinds.

A constraint is held as a union of disjoint blocks, each the product of one
constant set per logvar (the intensional constraints of Taghipour, Fierens,
Davis & Blockeel, JAIR 2013). A constraint whose tuples are the product of
their column sets is one block, and an operation on one block works on its
sets: peeling a named constant off is one set difference. This module is
the only one that reads a constraint's blocks or tuples: the rest of the
package projects, counts, splits, joins and grounds constraints through the
functions below. Only grounding lists tuples, through ``_listed``, in
sorted order. On a union of several blocks a join, a count, or a projection
onto two or more logvars lists that constraint's tuples too, where the
algebra would need to reason about pairs of blocks.

All types are immutable after construction and safe to share between
threads; the operations below are pure functions.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConstraintsMisaligned, NotCountNormalized, ValidationError

_IDENT_HINT = "identifiers must be non-empty strings"


class _Identifier(str):
    """A name that is its own value: equality, hashing and order are ``str``'s."""

    __slots__ = ()

    def __new__(cls, name: str):
        if not isinstance(name, str) or not name:
            raise ValidationError(_IDENT_HINT)
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return str(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={str.__repr__(self)})"


class Logvar(_Identifier):
    """A logical variable ranging over a domain of constants."""

    __slots__ = ()


class Constant(_Identifier):
    """A named individual; distinct names denote distinct individuals."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Range:
    """Ordered discrete value labels of a randvar; order fixes table indexing."""

    values: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 2:
            raise ValidationError("a range needs at least two values")
        if len(set(self.values)) != len(self.values):
            raise ValidationError("range values must be unique")

    def index(self, value: str) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ValidationError(f"{value!r} is not in range {list(self.values)}") from None

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


BOOLEAN = Range(("false", "true"))


@dataclass(frozen=True, slots=True)
class PRV:
    """A randvar template ``name(params...)``; no params means a propositional randvar."""

    name: str
    params: tuple[Logvar, ...] = ()
    range: Range = BOOLEAN

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if not self.name:
            raise ValidationError(_IDENT_HINT)
        if len(set(self.params)) != len(self.params):
            raise ValidationError(f"duplicate logvar in {self.name}{self.params}")

    def __str__(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({','.join(self.params)})"


@dataclass(frozen=True, slots=True, order=True)
class GroundAtom:
    """One instance of a PRV: a randvar name applied to constants."""

    name: str
    args: tuple[Constant, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"


Block = tuple[frozenset[Constant], ...]  # one non-empty constant set per logvar


@dataclass(frozen=True, slots=True, eq=False)
class Constraint:
    """A logvar sequence plus the constant tuples it may bind to, as disjoint blocks.

    Each block is the product of one non-empty constant set per logvar, and
    no tuple lies in two blocks. A constraint with no blocks is empty: a
    template's constraints are, and so is a degenerate constraint world's.
    ``tuples`` lists the tuples sorted by constant name, on demand. Equality
    and hashing depend only on the logvars and the set of tuples, however
    the blocks cut it.
    """

    logvars: tuple[Logvar, ...]
    blocks: tuple[Block, ...] = ()
    size: int = field(init=False)

    def __post_init__(self):
        logvars, blocks = tuple(self.logvars), tuple(self.blocks)
        if len(set(logvars)) != len(logvars):
            raise ValidationError("constraint logvars must be distinct")
        if any(len(b) != len(logvars) or not all(b) for b in blocks):
            raise ValidationError("a block needs one non-empty constant set per logvar")
        object.__setattr__(self, "logvars", logvars)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "size", _count(blocks))

    @classmethod
    def extensional(cls, logvars: Iterable[Logvar], tuples: Iterable[Sequence[Constant]]) -> "Constraint":
        logvars = tuple(logvars)
        distinct = dict.fromkeys(map(tuple, tuples))
        if not distinct:
            raise ValidationError("extensional constraint needs at least one tuple")
        for t in distinct:
            if len(t) != len(logvars):
                names = tuple(map(str, logvars))
                raise ValidationError(f"tuple {tuple(map(str, t))} does not match logvars {names}")
        return cls(logvars, _decompose(distinct))

    @classmethod
    def empty(cls, logvars: Iterable[Logvar]) -> "Constraint":
        return cls(tuple(logvars))

    @property
    def tuples(self) -> tuple[tuple[Constant, ...], ...]:
        return tuple(_listed(self.blocks))

    def position(self, logvar: Logvar) -> int:
        try:
            return self.logvars.index(logvar)
        except ValueError:
            raise ValidationError(f"logvar {logvar.name} not in constraint") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Constraint) and (self.logvars, self.tuples) == (other.logvars, other.tuples)

    def __hash__(self) -> int:
        return hash((self.logvars, self.tuples))


def _flat_index(ranges: Sequence[Range], assignment: Sequence[str], what: str) -> int:
    """Row-major index of one value per range, the last range varying fastest."""
    if len(assignment) != len(ranges):
        raise ValidationError(f"assignment length does not match {what}")
    idx = 0
    for r, value in zip(ranges, assignment):
        idx = idx * len(r) + r.index(value)
    return idx


@dataclass(frozen=True, eq=False)
class PotentialTable:
    """Dense non-negative potentials over the joint range of the argument PRVs."""

    args: tuple[PRV, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        values = np.asarray(self.values, dtype=float).reshape(-1)
        expected = int(np.prod([len(a.range) for a in self.args], dtype=int)) if self.args else 1
        if values.size != expected:
            raise ValidationError(f"table needs {expected} values, got {values.size}")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValidationError("potentials must be finite and non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a.range) for a in self.args)

    def as_array(self) -> np.ndarray:
        return self.values.reshape(self.shape)


def _arg_logvars(args: Iterable[PRV]) -> tuple[Logvar, ...]:
    seen: dict[Logvar, None] = {}
    for arg in args:
        for lv in arg.params:
            seen.setdefault(lv)
    return tuple(seen)


@dataclass(frozen=True, eq=False)
class Parfactor:
    """A potential table restricted to the groundings a constraint permits."""

    table: PotentialTable
    constraint: Constraint

    def __post_init__(self):
        need = set(_arg_logvars(self.table.args))
        have = set(self.constraint.logvars)
        if need != have:
            raise ValidationError(
                f"constraint logvars {sorted(l.name for l in have)} must cover exactly "
                f"the argument logvars {sorted(l.name for l in need)}"
            )


@dataclass(frozen=True, eq=False)
class GroundFactor:
    """One grounding of a parfactor; the table object is shared, not copied."""

    atoms: tuple[GroundAtom, ...]
    table: PotentialTable


def _check_signatures(parfactors: Sequence[Parfactor]) -> dict[str, tuple[int, Range]]:
    sigs: dict[str, tuple[int, Range]] = {}
    for p in parfactors:
        for arg in p.table.args:
            sig = (len(arg.params), arg.range)
            known = sigs.setdefault(arg.name, sig)
            if known != sig:
                raise ValidationError(f"randvar {arg.name} used with inconsistent arity or range")
    return sigs


@dataclass(frozen=True)
class TemplateModel:
    """Parfactors with empty constraints: structure and local potentials, no universe.

    Each parfactor carries a name so constraint programs can address it;
    names default to ``g0, g1, ...`` in declaration order.
    """

    parfactors: tuple[Parfactor, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        parfactors = tuple(self.parfactors)
        object.__setattr__(self, "parfactors", parfactors)
        names = tuple(self.names) or tuple(f"g{i}" for i in range(len(parfactors)))
        object.__setattr__(self, "names", names)
        if len(names) != len(parfactors):
            raise ValidationError("one name per parfactor required")
        if len(set(names)) != len(names):
            raise ValidationError("parfactor names must be unique")
        for name, p in zip(names, parfactors):
            if p.constraint.size:
                raise ValidationError(f"template parfactor {name} must have an empty constraint")
        _check_signatures(parfactors)

    @cached_property
    def logvars(self) -> tuple[Logvar, ...]:
        seen: dict[Logvar, None] = {}
        for p in self.parfactors:
            for lv in p.constraint.logvars:
                seen.setdefault(lv)
        return tuple(seen)


@dataclass(frozen=True)
class ParameterisedModel:
    """Parfactors whose constraints are filled in; the groundable form of a model."""

    parfactors: tuple[Parfactor, ...]

    def __post_init__(self):
        parfactors = tuple(self.parfactors)
        object.__setattr__(self, "parfactors", parfactors)
        for p in parfactors:
            if not p.constraint.size:
                raise ValidationError("parameterised model must not contain empty constraints")
        _check_signatures(parfactors)

    @cached_property
    def signatures(self) -> dict[str, tuple[int, Range]]:
        return _check_signatures(self.parfactors)

    def ground(self) -> tuple[GroundFactor, ...]:
        return tuple(
            GroundFactor(atoms, p.table)
            for p in self.parfactors
            for atoms in _groundings(p.table.args, p.constraint)
        )

    def ground_size(self) -> int:
        """Number of ground factors the model expands to."""
        return sum(p.constraint.size for p in self.parfactors)

    def contains_atom(self, atom: GroundAtom) -> bool:
        for p in self.parfactors:
            for arg in p.table.args:
                if arg.name != atom.name or len(arg.params) != len(atom.args):
                    continue
                if not arg.params:
                    return True
                pos = [p.constraint.position(lv) for lv in arg.params]
                if _holds((tuple(b[i] for i in pos) for b in p.constraint.blocks), atom.args):
                    return True
        return False


def _groundings(args: Sequence[PRV], c: Constraint) -> Iterator[tuple[GroundAtom, ...]]:
    """The ground atoms of ``args`` under each tuple of ``c``, in sorted tuple order.

    The one routine that turns constraint tuples into ground atoms.
    """
    pos = {lv: i for i, lv in enumerate(c.logvars)}
    for t in _listed(c.blocks):
        yield tuple(GroundAtom(a.name, tuple(t[pos[lv]] for lv in a.params)) for a in args)


# ---------------------------------------------------------------------------
# the block algebra

_MISALIGNED = "constraints misaligned: join does not pair groundings one-to-one"


def _listed(blocks: Sequence[Block]) -> list[tuple[Constant, ...]]:
    """Every tuple of ``blocks``, sorted: the one routine that lists a constraint."""
    rows = [itertools.product(*map(sorted, b)) for b in blocks]
    return list(rows[0]) if len(rows) == 1 else sorted(itertools.chain(*rows))


def _decompose(tuples: Collection[tuple]) -> tuple[Block, ...]:
    """Disjoint blocks covering exactly ``tuples`` (distinct, all of one width).

    One block when the tuples are the product of their column sets;
    otherwise the first column's constants are grouped by how the rest of
    their tuples decompose. The blocks, as a set, depend only on the set of
    tuples, so equal tuple sets give equal frozensets of blocks.
    """
    if not tuples:
        return ()
    columns = tuple(map(frozenset, zip(*tuples)))
    if math.prod(map(len, columns)) == len(tuples):
        return (columns,)
    rests: dict[Constant, list[tuple]] = {}
    for t in tuples:
        rests.setdefault(t[0], []).append(t[1:])
    firsts: dict[frozenset, list[Constant]] = {}
    for first, rest in rests.items():
        firsts.setdefault(frozenset(_decompose(rest)), []).append(first)
    return tuple((frozenset(cs),) + b for rest, cs in firsts.items() for b in rest)


def _union(blocks: Sequence[Block]) -> tuple[Block, ...]:
    """Disjoint blocks of one width, as :func:`_decompose` gives their tuples.

    They are one block when their sizes add up to the product of their
    column unions (``_decompose``'s own product test); otherwise their
    tuples are listed.
    """
    if len(blocks) <= 1:
        return tuple(blocks)
    # a column of equal sets keeps its first set, so a shared pool is not copied
    columns = tuple(c[0] if c.count(c[0]) == len(c) else frozenset().union(*c) for c in zip(*blocks))
    if math.prod(map(len, columns)) == _count(blocks):
        return (columns,)
    return _decompose(_listed(blocks))


def _project(c: Constraint, keep: Sequence[Logvar]) -> tuple[Block, ...]:
    """``c``'s tuples cut down to ``keep``, as :func:`_decompose` gives them.

    The cut blocks may overlap, so two or more of them are merged as sets
    onto one logvar or fewer, and listed onto more.
    """
    pos = [c.position(lv) for lv in keep]
    blocks = [tuple(b[i] for i in pos) for b in c.blocks]
    if len(blocks) <= 1:
        return tuple(blocks)
    if len(pos) <= 1:
        return (tuple(frozenset().union(*col) for col in zip(*blocks)),)
    return _decompose(set(_listed(blocks)))


# A group is the instance set of one argument: a frozenset of the blocks
# _decompose gives for it, so equal instance sets give equal groups.


def _group(c: Constraint, params: Sequence[Logvar]) -> frozenset[Block]:
    return frozenset(_project(c, params))


def _count(group: Collection[Block]) -> int:
    return sum(math.prod(map(len, b)) for b in group)


def _least(group: frozenset[Block]) -> tuple[Constant, ...]:
    return min(tuple(map(min, b)) for b in group)


def _holds(group: Iterable[Block], instance: tuple[Constant, ...]) -> bool:
    return any(all(map(operator.contains, b, instance)) for b in group)


def _meet(g1: frozenset[Block], g2: frozenset[Block]) -> frozenset[Block]:
    """The instances two groups share, as a group."""
    met = [tuple(map(operator.and_, b1, b2)) for b1 in g1 for b2 in g2]
    return frozenset(_union([m for m in met if all(m)]))


def _split(
    c: Constraint, params: Sequence[Logvar], group: frozenset[Block]
) -> tuple[Constraint, Constraint]:
    """The groundings of ``c`` whose ``params`` instance is in ``group``, and the rest.

    Each block of ``c`` is cut on each block of ``group``: the part inside
    it, and for each logvar of ``params`` whose set reaches outside it, one
    disjoint block of what is left.
    """
    pos = [c.position(lv) for lv in params]
    inside: list[Block] = []
    outside = list(c.blocks)
    for g in group:
        left = []
        for b in outside:
            met = list(b)
            for i, s in zip(pos, g):
                met[i] = b[i] & s
            if not all(met):
                left.append(b)
                continue
            inside.append(tuple(met))
            head = list(b)
            for i in pos:
                if diff := b[i] - met[i]:
                    left.append(tuple(head[:i] + [diff] + head[i + 1 :]))
                head[i] = met[i]
        outside = left
    return Constraint(c.logvars, inside), Constraint(c.logvars, outside)


def _peel(c: Constraint, named: Collection[Constant]) -> dict[tuple, Constraint]:
    """``c`` split by which ``named`` constant each logvar binds, ``""`` for any other.

    Each set gives up the named constants it holds, each as a set of its
    own; a part is keyed as keying every tuple that way would key it (no
    constant has an empty name).
    """
    parts: dict[tuple, list[Block]] = {}
    for b in c.blocks:
        choices = []
        for s in b:
            hit = [k for k in named if k in s]
            rest = s.difference(hit) if hit else s
            choices.append([(k, frozenset((k,))) for k in hit] + ([("", rest)] if rest else []))
        for combo in itertools.product(*choices):
            parts.setdefault(tuple(k for k, _ in combo), []).append(tuple(s for _, s in combo))
    return {k: Constraint(c.logvars, bs) for k, bs in parts.items()}


def _join(c1: Constraint, c2: Constraint) -> Constraint:
    """The join of two constraints that pair their groundings one-to-one.

    A block with more than one constant in a set of a logvar only its side
    has holds two groundings with one key on the shared logvars, so it
    cannot pair. Two single blocks then pair exactly when their shared sets
    are equal. Unions of blocks are joined on their listed tuples: ``c2``'s
    are keyed on the shared logvars and each tuple of ``c1`` pops its
    partner. A failed pairing raises :class:`ConstraintsMisaligned`.
    """
    shared = [lv for lv in c2.logvars if lv in c1.logvars]
    extra = tuple(lv for lv in c2.logvars if lv not in c1.logvars)
    own = [i for i, lv in enumerate(c1.logvars) if lv not in c2.logvars]
    s1, s2 = [c1.position(lv) for lv in shared], [c2.position(lv) for lv in shared]
    x2 = [c2.position(lv) for lv in extra]
    if any(len(b[i]) > 1 for b in c1.blocks for i in own) or any(
        len(b[i]) > 1 for b in c2.blocks for i in x2
    ):
        raise ConstraintsMisaligned(_MISALIGNED)
    logvars = c1.logvars + extra
    if len(c1.blocks) == len(c2.blocks) == 1:
        (b1,), (b2,) = c1.blocks, c2.blocks
        if tuple(b1[i] for i in s1) != tuple(b2[i] for i in s2):
            raise ConstraintsMisaligned(_MISALIGNED)
        return Constraint(logvars, (b1 + tuple(b2[i] for i in x2),))
    partner = {tuple(t[i] for i in s2): tuple(t[i] for i in x2) for t in c2.tuples}
    keys_unique = len(partner) == c2.size
    tuples1 = c1.tuples
    keys1 = [tuple(t[i] for i in s1) for t in tuples1]
    joined = [t + partner.pop(k) for t, k in zip(tuples1, keys1) if k in partner]
    if not keys_unique or len(joined) < c1.size or partner:
        raise ConstraintsMisaligned(_MISALIGNED)
    return Constraint(logvars, _decompose(joined))


def _uniform_count(c: Constraint, keep: Sequence[Logvar]) -> tuple[int, Constraint]:
    """How many groundings each tuple cut down to ``keep`` extends to, and the projection.

    One block extends every kept tuple by the product of its other sets; a
    union of blocks counts its listed tuples. Raises
    :class:`NotCountNormalized` when the count differs between kept tuples
    or ``c`` has no tuples.
    """
    if not c.blocks:
        raise NotCountNormalized("not count-normalized: the constraint has no tuples")
    keep = tuple(keep)
    pos = [c.position(lv) for lv in keep]
    if len(c.blocks) == 1:
        (b,) = c.blocks
        n = c.size // math.prod(len(b[i]) for i in pos)
        return n, Constraint(keep, (tuple(b[i] for i in pos),))
    counts = Counter(tuple(t[i] for i in pos) for t in c.tuples)
    distinct = set(counts.values())
    if len(distinct) != 1:
        raise NotCountNormalized(
            f"not count-normalized: kept tuples extend to {sorted(distinct)} groundings"
        )
    return distinct.pop(), Constraint(keep, _decompose(counts))


def project(c: Constraint, keep: Sequence[Logvar]) -> Constraint:
    """Restrict the tuple set to ``keep`` (order as given), dropping duplicates."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ValidationError("projection logvars must be distinct")
    blocks = _project(c, keep)
    if not blocks:
        raise ValidationError("a projection needs at least one tuple")
    return Constraint(keep, blocks)


def conditional_count(c: Constraint, eliminate: Iterable[Logvar]) -> int:
    """How many tuples each kept tuple extends to when ``eliminate`` is dropped.

    This is the count-normalization check behind lifted sum-out exponents:
    the count must be the same for every kept tuple, otherwise a single
    exponent cannot stand in for the eliminated groundings. A constraint with
    no tuples has no count.
    """
    elim = set(eliminate)
    for lv in elim:
        c.position(lv)
    return _uniform_count(c, [lv for lv in c.logvars if lv not in elim])[0]


def _product(logvars: tuple[Logvar, ...], domains: Mapping[Logvar, Sequence[Constant]]) -> Constraint:
    """The constraint binding ``logvars`` to every tuple of their domains: one block."""
    block = []
    for lv in logvars:
        if lv not in domains:
            raise ValidationError(f"missing domain for logvar {lv.name!r}")
        dom = tuple(domains[lv])
        if not dom:
            raise ValidationError(f"empty domain for logvar {lv.name!r}")
        block.append(frozenset(dom))
    return Constraint(logvars, (tuple(block),))
