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
rest of the package restricts, counts, partitions, joins and grounds
constraints through the functions below.

All types are immutable after construction and safe to share between
threads; the operations below are pure functions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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


def _restrict(c: Constraint, logvars: Sequence[Logvar]) -> Iterator[tuple[Constant, ...]]:
    """Each tuple of ``c`` cut down to ``logvars``, in ``c``'s tuple order."""
    if not logvars:
        return itertools.repeat((), c.size)
    columns = tuple(zip(*c.tuples)) or ((),) * len(c.logvars)  # an empty constraint
    return zip(*[columns[c.position(lv)] for lv in logvars])


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
                if atom.args in _restrict(p.constraint, arg.params):
                    return True
        return False


def _groundings(args: Sequence[PRV], c: Constraint) -> Iterator[tuple[GroundAtom, ...]]:
    """The ground atoms of ``args`` under each tuple of ``c``, in tuple order.

    The one routine that turns constraint tuples into ground atoms.
    """
    pos = {lv: i for i, lv in enumerate(c.logvars)}
    for t in c.tuples:
        yield tuple(GroundAtom(a.name, tuple(t[pos[lv]] for lv in a.params)) for a in args)


def ground(p: Parfactor) -> tuple[GroundFactor, ...]:
    """Expand a parfactor into one ground factor per constraint tuple."""
    return tuple(GroundFactor(atoms, p.table) for atoms in _groundings(p.table.args, p.constraint))


def project(c: Constraint, keep: Sequence[Logvar]) -> Constraint:
    """Restrict the tuple set to ``keep`` (order as given), dropping duplicates."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ValidationError("projection logvars must be distinct")
    return Constraint.extensional(keep, set(_restrict(c, keep)))


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
    if not c.size:
        raise NotCountNormalized("not count-normalized: the constraint has no tuples")
    return _uniform_count(c, [lv for lv in c.logvars if lv not in elim])[0]


def _uniform_count(c: Constraint, keep: Sequence[Logvar]) -> tuple[int, Constraint]:
    """Count and project in one walk over ``c``.

    Returns how many tuples each tuple cut down to ``keep`` extends to, and
    the projection onto ``keep``. Raises :class:`NotCountNormalized` when
    that count differs between kept tuples.
    """
    counts = Counter(_restrict(c, keep))
    distinct = set(counts.values())
    if len(distinct) != 1:
        raise NotCountNormalized(
            f"not count-normalized: kept tuples extend to {sorted(distinct)} groundings"
        )
    return distinct.pop(), Constraint.extensional(keep, counts.keys())


def _partition(c: Constraint, key: Callable[[tuple], Hashable]) -> dict[Hashable, Constraint]:
    """One constraint per distinct ``key(tuple)``, in first-seen order.

    A constraint whose tuples all share one key comes back as it is.
    """
    parts: dict[Hashable, list[tuple]] = {}
    for t in c.tuples:
        parts.setdefault(key(t), []).append(t)
    if len(parts) == 1:
        return dict.fromkeys(parts, c)
    return {k: Constraint.extensional(c.logvars, ts) for k, ts in parts.items()}


def _join(c1: Constraint, c2: Constraint) -> Constraint:
    """The join of two constraints that pair their groundings one-to-one.

    ``c2``'s tuples are keyed on the shared logvars, and each tuple of ``c1``
    pops the partner with its key. A repeated key in ``c2``, a ``c1`` tuple
    with no partner or a ``c2`` tuple left over raises
    :class:`ConstraintsMisaligned`.
    """
    shared = [lv for lv in c2.logvars if lv in c1.logvars]
    extra = [lv for lv in c2.logvars if lv not in c1.logvars]
    partner = dict(zip(_restrict(c2, shared), _restrict(c2, extra)))
    keys_unique = len(partner) == c2.size
    joined = [t + partner.pop(k) for t, k in zip(c1.tuples, _restrict(c1, shared)) if k in partner]
    if not keys_unique or len(joined) < c1.size or partner:
        raise ConstraintsMisaligned(
            "constraints misaligned: join does not pair groundings one-to-one"
        )
    return Constraint.extensional(c1.logvars + tuple(extra), joined)


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
