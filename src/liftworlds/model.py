"""Value types and grounding machinery for parameterised factor models.

A parfactor packages a dense potential table over parameterised random
variables (PRVs) with a constraint listing, extensionally, the logvar
bindings the table applies to. A constraint is empty exactly when it lists
no tuples. A template model is the same structure with every constraint
left empty; a parameterised model has every constraint filled in, so it can
be grounded into ordinary propositional factors.

Table layout is fixed once and for all: the flat value array is row-major
over the argument ranges with the *last* argument varying fastest, i.e.
``values.reshape(shape)`` indexes as ``[i_arg0, ..., i_argN]``. File formats
and every operation in this package rely on that order.

Logvars and constants are their names: both subclass ``str``, so equality,
hashing and order are the string's, and ``Constant("x") == "x"``. No
container mixes the two kinds. Constraint tuples are sorted by constant
name. This module is the only one that reads a constraint's tuples: the
rest of the package projects, counts, splits, joins and grounds constraints
through the functions below.

Those operations work on a constraint's block form,
:class:`BlockConstraint`: a union of disjoint blocks, each the product of
one constant set per logvar (the intensional constraints of Taghipour,
Fierens, Davis & Blockeel, JAIR 2013). A constraint whose tuples are the
product of its column sets is one block, and an operation on one block
works on its sets: peeling a named constant off is one set difference.
Only grounding lists tuples, through ``_listed``, in the stored sorted
order. On a union of several blocks a join, a count, or a projection onto
two or more logvars lists that constraint's tuples too, where the algebra
would need to reason about pairs of blocks.

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


@dataclass(frozen=True, slots=True)
class Constraint:
    """A logvar sequence plus the set of constant tuples it may bind to.

    A constraint with no tuples is empty: a template's constraints are, and
    so is a degenerate constraint world's. Tuples are stored sorted so equal
    constraints compare and hash equal regardless of construction order.
    """

    logvars: tuple[Logvar, ...]
    tuples: tuple[tuple[Constant, ...], ...] = ()

    def __post_init__(self):
        logvars = tuple(self.logvars)
        if len(set(logvars)) != len(logvars):
            raise ValidationError("constraint logvars must be distinct")
        # order-preserving dedup, then sort: linear when the caller pre-sorts
        tuples = tuple(sorted(dict.fromkeys(map(tuple, self.tuples))))
        object.__setattr__(self, "logvars", logvars)
        object.__setattr__(self, "tuples", tuples)
        if tuples and set(map(len, tuples)) != {len(logvars)}:
            bad = next(t for t in tuples if len(t) != len(logvars))
            raise ValidationError(
                f"tuple {tuple(c.name for c in bad)} does not match logvars "
                f"{tuple(l.name for l in logvars)}"
            )

    @classmethod
    def extensional(cls, logvars: Iterable[Logvar], tuples: Iterable[Sequence[Constant]]) -> "Constraint":
        c = cls(tuple(logvars), tuples)
        if not c.tuples:
            raise ValidationError("extensional constraint needs at least one tuple")
        return c

    @classmethod
    def empty(cls, logvars: Iterable[Logvar]) -> "Constraint":
        return cls(tuple(logvars))

    @property
    def size(self) -> int:
        return len(self.tuples)

    def position(self, logvar: Logvar) -> int:
        try:
            return self.logvars.index(logvar)
        except ValueError:
            raise ValidationError(f"logvar {logvar.name} not in constraint") from None


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

    def encode(self, assignment: Sequence[str]) -> int:
        """Flat index of one joint range-value tuple (last argument fastest)."""
        return _flat_index(tuple(a.range for a in self.args), assignment, "arguments")

    def decode(self, index: int) -> tuple[str, ...]:
        if not 0 <= index < self.values.size:
            raise ValidationError("index out of bounds")
        out = []
        for arg in reversed(self.args):
            index, pos = divmod(index, len(arg.range))
            out.append(arg.range.values[pos])
        return tuple(reversed(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PotentialTable):
            return NotImplemented
        return self.args == other.args and np.array_equal(self.values, other.values)


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

    @property
    def args(self) -> tuple[PRV, ...]:
        return self.table.args

    @property
    def logvars(self) -> tuple[Logvar, ...]:
        return self.constraint.logvars


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
            if p.constraint.tuples:
                raise ValidationError(f"template parfactor {name} must have an empty constraint")
        _check_signatures(parfactors)

    @cached_property
    def logvars(self) -> tuple[Logvar, ...]:
        seen: dict[Logvar, None] = {}
        for p in self.parfactors:
            for lv in p.constraint.logvars:
                seen.setdefault(lv)
        return tuple(seen)

    @cached_property
    def signatures(self) -> dict[str, tuple[int, Range]]:
        return _check_signatures(self.parfactors)


@dataclass(frozen=True)
class ParameterisedModel:
    """Parfactors whose constraints are filled in; the groundable form of a model."""

    parfactors: tuple[Parfactor, ...]

    def __post_init__(self):
        parfactors = tuple(self.parfactors)
        object.__setattr__(self, "parfactors", parfactors)
        for p in parfactors:
            if not p.constraint.tuples:
                raise ValidationError("parameterised model must not contain empty constraints")
        _check_signatures(parfactors)

    @cached_property
    def signatures(self) -> dict[str, tuple[int, Range]]:
        return _check_signatures(self.parfactors)

    def ground(self) -> tuple[GroundFactor, ...]:
        out: list[GroundFactor] = []
        for p in self.parfactors:
            out.extend(ground(p))
        return tuple(out)

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
                # the first matching tuple ends the scan; no column is listed
                pos = [p.constraint.position(lv) for lv in arg.params]
                key = atom.args if len(pos) > 1 else atom.args[0]
                if key in map(operator.itemgetter(*pos), p.constraint.tuples):
                    return True
        return False


def _groundings(
    args: Sequence[PRV], c: Constraint | BlockConstraint
) -> Iterator[tuple[GroundAtom, ...]]:
    """The ground atoms of ``args`` under each tuple of ``c``, in sorted tuple order.

    The one routine that turns constraint tuples into ground atoms, from a
    constraint's stored tuples or a block form's listed ones.
    """
    pos = {lv: i for i, lv in enumerate(c.logvars)}
    for t in c.tuples:
        yield tuple(GroundAtom(a.name, tuple(t[pos[lv]] for lv in a.params)) for a in args)


def ground(p: Parfactor) -> tuple[GroundFactor, ...]:
    """Expand a parfactor into one ground factor per constraint tuple."""
    return tuple(GroundFactor(atoms, p.table) for atoms in _groundings(p.table.args, p.constraint))


# ---------------------------------------------------------------------------
# the block form: a constraint as a union of disjoint products

Block = tuple[frozenset[Constant], ...]  # one non-empty constant set per logvar

_MISALIGNED = "constraints misaligned: join does not pair groundings one-to-one"


@dataclass(frozen=True, slots=True, eq=False)
class BlockConstraint:
    """A constraint as a union of disjoint blocks, each the product of one set per logvar.

    The lifted engine holds every constraint in this form. :func:`blocks_of`
    builds it once per parfactor per query; it is not stored on a model.
    ``tuples`` lists the tuples in :class:`Constraint`'s sorted order.
    """

    logvars: tuple[Logvar, ...]
    blocks: tuple[Block, ...]
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", sum(math.prod(map(len, b)) for b in self.blocks))

    position = Constraint.position

    @property
    def tuples(self) -> list[tuple[Constant, ...]]:
        return _listed(self.blocks)


def _listed(blocks: Sequence[Block]) -> list[tuple[Constant, ...]]:
    """Every tuple of ``blocks``, sorted: the one routine that lists a block form."""
    rows = [itertools.product(*map(sorted, b)) for b in blocks]
    return list(rows[0]) if len(rows) == 1 else sorted(itertools.chain(*rows))


def blocks_of(c: Constraint) -> BlockConstraint:
    """The block form of ``c``: one block when its tuples are the product of its columns."""
    return BlockConstraint(c.logvars, _decompose(c.tuples))


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


def _merged(blocks: Sequence[Block]) -> tuple[Block, ...]:
    """Blocks of one width, which may overlap, as :func:`_decompose` gives their tuples."""
    if len(blocks) <= 1:
        return tuple(blocks)
    if len(blocks[0]) <= 1:  # no logvar or one: the union of the sets
        return (tuple(frozenset().union(*col) for col in zip(*blocks)),)
    return _decompose(set(_listed(blocks)))


def _project(c: BlockConstraint, keep: Sequence[Logvar]) -> tuple[Block, ...]:
    """The blocks of ``c``'s tuples cut down to ``keep``."""
    pos = [c.position(lv) for lv in keep]
    return _merged([tuple(b[i] for i in pos) for b in c.blocks])


# A group is the instance set of one argument: a frozenset of the blocks
# _decompose gives for it, so equal instance sets give equal groups.


def _group(c: BlockConstraint, params: Sequence[Logvar]) -> frozenset[Block]:
    return frozenset(_project(c, params))


def _count(group: frozenset[Block]) -> int:
    return sum(math.prod(map(len, b)) for b in group)


def _least(group: frozenset[Block]) -> tuple[Constant, ...]:
    return min(tuple(map(min, b)) for b in group)


def _holds(group: frozenset[Block], instance: tuple[Constant, ...]) -> bool:
    return any(all(map(operator.contains, b, instance)) for b in group)


def _meet(g1: frozenset[Block], g2: frozenset[Block]) -> frozenset[Block]:
    """The instances two groups share, as a group."""
    met = [tuple(map(operator.and_, b1, b2)) for b1 in g1 for b2 in g2]
    return frozenset(_merged([m for m in met if all(m)]))


def _split(
    c: BlockConstraint, params: Sequence[Logvar], group: frozenset[Block]
) -> tuple[BlockConstraint, BlockConstraint]:
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
    return BlockConstraint(c.logvars, tuple(inside)), BlockConstraint(c.logvars, tuple(outside))


def _peel(c: BlockConstraint, named: Collection[Constant]) -> dict[tuple, BlockConstraint]:
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
    return {k: BlockConstraint(c.logvars, tuple(bs)) for k, bs in parts.items()}


def _join(c1: BlockConstraint, c2: BlockConstraint) -> BlockConstraint:
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
        return BlockConstraint(logvars, (b1 + tuple(b2[i] for i in x2),))
    partner = {tuple(t[i] for i in s2): tuple(t[i] for i in x2) for t in c2.tuples}
    keys_unique = len(partner) == c2.size
    tuples1 = c1.tuples
    keys1 = [tuple(t[i] for i in s1) for t in tuples1]
    joined = [t + partner.pop(k) for t, k in zip(tuples1, keys1) if k in partner]
    if not keys_unique or len(joined) < c1.size or partner:
        raise ConstraintsMisaligned(_MISALIGNED)
    return BlockConstraint(logvars, _decompose(joined))


def _uniform_count(c: BlockConstraint, keep: Sequence[Logvar]) -> tuple[int, BlockConstraint]:
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
        return n, BlockConstraint(keep, (tuple(b[i] for i in pos),))
    counts = Counter(tuple(t[i] for i in pos) for t in c.tuples)
    distinct = set(counts.values())
    if len(distinct) != 1:
        raise NotCountNormalized(
            f"not count-normalized: kept tuples extend to {sorted(distinct)} groundings"
        )
    return distinct.pop(), BlockConstraint(keep, _decompose(counts))


def project(c: Constraint, keep: Sequence[Logvar]) -> Constraint:
    """Restrict the tuple set to ``keep`` (order as given), dropping duplicates."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ValidationError("projection logvars must be distinct")
    return Constraint.extensional(keep, _listed(_project(blocks_of(c), keep)))


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
    return _uniform_count(blocks_of(c), [lv for lv in c.logvars if lv not in elim])[0]


def _product(logvars: tuple[Logvar, ...], domains: Mapping[Logvar, Sequence[Constant]]) -> Constraint:
    """The constraint binding ``logvars`` to every tuple of their domains."""
    per_logvar = []
    for lv in logvars:
        if lv not in domains:
            raise ValidationError(f"missing domain for logvar {lv.name!r}")
        dom = tuple(domains[lv])
        if not dom:
            raise ValidationError(f"empty domain for logvar {lv.name!r}")
        per_logvar.append(dom)
    return Constraint.extensional(logvars, itertools.product(*per_logvar))
