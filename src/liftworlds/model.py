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
Davis & Blockeel, JAIR 2013). A constant set is a :class:`ConstantSet`: its
named constants plus runs of synthetic names ``x{lo}`` .. ``x{hi}``, so the
N anonymous persons of a domain world are one run, and "every person but
x1" is the run ``x2`` .. ``x{N}``, the constraint form of Kisynski & Poole
(UAI 2009). Every set operation costs O(named constants + runs), never
O(N). A constraint whose tuples are the product of their column sets is one
block, and an operation on one block works on its sets: peeling a named
constant off is one split (``_split``, the one routine that cuts a
constraint on a group). This module is the only one that reads
a constraint's blocks or tuples: the rest of the package projects, counts,
splits, joins and grounds constraints through the functions below. Only
grounding and ``Constraint.tuples`` list tuples, through ``_listed``, in
sorted order, and ``_listed`` is the only routine that names the constants
of a run. A projection, a count or a join of any union of blocks works on
a cover (``_cover``): the blocks, which may overlap, recut into disjoint
blocks in one canonical form, each with the summed weight of the blocks
that hold its tuples.

``_shape`` keys a model for one query: it cuts every block set into
disjoint regions (``_regions``), each of the query's constants one of its
own, and two models with equal keys map onto each other by a renaming that
fixes the query's constants, so ``query_all`` answers one of them for both.
Models whose keys differ only in their region sizes have one structure:
every count on one is a sum of products of sums of region sizes, so one
plan can serve them all. ``_at_sizes`` evaluates a plan's checks and
exponents at many models' sizes at once, which no other module does.

All types are immutable after construction and safe to share between
threads; the operations below are pure functions.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence

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


_SYNTHETIC = re.compile(r"x([1-9][0-9]*)")


def _synthetic(name: str) -> int:
    """The index ``i`` of a synthetic name ``x{i}``, or 0 for any other name."""
    m = _SYNTHETIC.fullmatch(name)
    return int(m[1]) if m else 0


class ConstantSet:
    """An immutable set of constants: named ones plus runs of synthetic names.

    A run ``(lo, hi)`` holds ``x{lo}`` .. ``x{hi}``. Every name ``x{i}``
    (``i >= 1``, no leading zero) sits in a run, however the set was given,
    and the runs are sorted, disjoint and never adjacent, so equal sets have
    equal parts and compare and hash equal. Size, membership, meet,
    difference, union, equality and hashing cost O(named + runs). A set
    names none of its run constants: ``_listed`` does, in string order.

    ``ConstantSet(["a", "x1"], [(5, 9)])`` holds a, x1 and x5 .. x9.
    """

    __slots__ = ("named", "runs", "size", "_hash")
    named: frozenset[Constant]
    runs: tuple[tuple[int, int], ...]
    size: int

    def __init__(self, named: Iterable[str] = (), runs: Iterable[tuple[int, int]] = ()):
        if isinstance(named, str):
            raise ValidationError("a constant set takes a collection of names, not one name")
        named = frozenset(named)
        spans = list(runs)
        if [c for c in named if type(c) is not Constant or c[:1] == "x"]:
            plain = []
            for c in named:
                if i := _synthetic(c):
                    spans.append((i, i))
                else:
                    plain.append(c if type(c) is Constant else Constant(c))
            named = frozenset(plain)
        merged: list[tuple[int, int]] = []
        size = len(named)
        for lo, hi in sorted(spans):
            if not (type(lo) is int and type(hi) is int and 1 <= lo <= hi):
                raise ValidationError(f"a run needs integers 1 <= lo <= hi, got ({lo!r}, {hi!r})")
            if merged and lo <= merged[-1][1] + 1:  # overlapping or adjacent: one run
                first, last = merged[-1]
                if hi > last:
                    size += hi - last
                    merged[-1] = (first, hi)
            else:
                size += hi - lo + 1
                merged.append((lo, hi))
        runs = tuple(merged)
        set_ = object.__setattr__
        set_(self, "named", named)
        set_(self, "runs", runs)
        set_(self, "size", size)
        set_(self, "_hash", hash((named, runs)))

    def __setattr__(self, name, value):
        raise AttributeError("ConstantSet is immutable")

    def __repr__(self) -> str:
        return f"ConstantSet({sorted(map(str, self.named))!r}, {list(self.runs)!r})"

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, ConstantSet)
            and self._hash == other._hash
            and self.runs == other.runs
            and self.named == other.named
        )

    def __contains__(self, c) -> bool:
        if c in self.named:
            return True
        i = _synthetic(c)
        if not i:
            return False
        k = bisect.bisect_right(self.runs, i, key=operator.itemgetter(0))
        return k > 0 and i <= self.runs[k - 1][1]

    def __and__(self, other: "ConstantSet") -> "ConstantSet":
        runs, a, b = [], self.runs, other.runs
        i = j = 0
        while i < len(a) and j < len(b):
            lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
            if lo <= hi:
                runs.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        named = self.named & other.named
        return ConstantSet(named, runs) if named or runs else _EMPTY

    def __sub__(self, other: "ConstantSet") -> "ConstantSet":
        runs, cuts = [], other.runs
        j = 0
        for lo, hi in self.runs:
            while j < len(cuts) and cuts[j][1] < lo:
                j += 1
            k = j
            while k < len(cuts) and cuts[k][0] <= hi:
                if cuts[k][0] > lo:
                    runs.append((lo, cuts[k][0] - 1))
                lo = max(lo, cuts[k][1] + 1)
                k += 1
            if lo <= hi:
                runs.append((lo, hi))
        return ConstantSet(self.named - other.named, runs)

    def union(self, *others: "ConstantSet") -> "ConstantSet":
        if not others:
            return self
        runs = itertools.chain(self.runs, *(o.runs for o in others))
        return ConstantSet(self.named.union(*(o.named for o in others)), runs)


_EMPTY = ConstantSet()  # what a meet that finds nothing returns, built once


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


Block = tuple[ConstantSet, ...]  # one non-empty constant set per logvar


@dataclass(frozen=True, slots=True, eq=False)
class Constraint:
    """A logvar sequence plus the constant tuples it may bind to, as disjoint blocks.

    Each block is the product of one non-empty :class:`ConstantSet` per
    logvar, and no tuple lies in two blocks. A constraint with no blocks is
    empty: a template's constraints are, and so is a degenerate constraint
    world's. ``tuples`` lists the tuples sorted by constant name, on demand.
    Equality and hashing depend only on the logvars and the set of tuples,
    however the blocks cut it, and list no tuple.
    """

    logvars: tuple[Logvar, ...]
    blocks: tuple[Block, ...] = ()
    size: int = field(init=False)

    def __post_init__(self):
        logvars, blocks = tuple(self.logvars), tuple(self.blocks)
        if len(set(logvars)) != len(logvars):
            raise ValidationError("constraint logvars must be distinct")
        if any(
            len(b) != len(logvars) or not all(isinstance(s, ConstantSet) and s for s in b)
            for b in blocks
        ):
            raise ValidationError("a block needs one non-empty ConstantSet per logvar")
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
        # blocks are disjoint on each side, so their pairwise meets hold
        # ``size`` tuples exactly when the two tuple sets are equal
        if not isinstance(other, Constraint) or (self.logvars, self.size) != (other.logvars, other.size):
            return False
        return self.blocks == other.blocks or self.size == sum(
            math.prod(len(s1 & s2) for s1, s2 in zip(b1, b2))
            for b1 in self.blocks
            for b2 in other.blocks
        )

    def __hash__(self) -> int:
        # the logvars, the size and each logvar's constants do not depend on the cut
        columns = tuple(col[0].union(*col[1:]) for col in zip(*self.blocks))
        return hash((self.logvars, self.size, columns))


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
    """Parfactors whose constraints are filled in; the groundable form of a model.

    ``form`` is the ``program.ConstraintWorld.form`` that ``expand`` built
    the model from. It is no argument, so ``dataclasses.replace`` and
    hand-built models get None, and ``query_all`` keys each as a form of its own.
    """

    parfactors: tuple[Parfactor, ...]
    form: tuple | None = field(default=None, init=False, compare=False, repr=False)

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
            GroundFactor(tuple([GroundAtom(*key) for key in keys]), p.table)
            for p in self.parfactors
            for keys in _groundings(p.table.args, p.constraint)
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


def _groundings(args: Sequence[PRV], c: Constraint) -> Iterator[tuple[tuple, ...]]:
    """The ground atoms of ``args`` under each tuple of ``c``, in sorted tuple order.

    The one routine that turns constraint tuples into ground atoms. Each
    atom is its plain ``(name, args)`` key, which compares and orders as
    ``GroundAtom(*key)`` does, so grounding makes no object per atom.
    """
    rows = _listed(c.blocks)
    columns = list(zip(*rows)) or [()] * len(c.logvars)
    # a column at a time: each argument's keys, then one tuple of keys per row
    keys = []
    for a in args:
        picked = [columns[c.position(lv)] for lv in a.params]
        values = zip(*picked) if picked else itertools.repeat((), len(rows))
        keys.append(zip(itertools.repeat(a.name), values))
    # a factor with no arguments still has one grounding per row
    return zip(*keys) if keys else itertools.repeat((), len(rows))


# ---------------------------------------------------------------------------
# the block algebra


def _listed(blocks: Iterable[Block]) -> list[tuple[Constant, ...]]:
    """Every tuple of ``blocks``, sorted: the one routine that lists a constraint.

    It is also the only one that names the constants of a run.
    """

    def names(s: ConstantSet) -> list[Constant]:
        made = (Constant(f"x{i}") for lo, hi in s.runs for i in range(lo, hi + 1))
        return sorted(itertools.chain(s.named, made))

    rows = [itertools.product(*map(names, b)) for b in blocks]
    return list(rows[0]) if len(rows) == 1 else sorted(itertools.chain(*rows))


def _decompose(tuples: Collection[tuple]) -> tuple[Block, ...]:
    """Disjoint blocks covering exactly ``tuples`` (distinct, all of one width).

    The :func:`_union` of one singleton block per tuple, so equal tuple sets
    give equal frozensets of blocks.
    """
    one = {c: ConstantSet((c,)) for c in set(itertools.chain.from_iterable(tuples))}
    return _union([tuple(map(one.__getitem__, t)) for t in tuples])


def _regions(
    sets: Sequence[ConstantSet], fixed: Sequence[ConstantSet] = ()
) -> list[tuple[ConstantSet, tuple[int, ...]]]:
    """``sets`` cut into disjoint regions, each with the indices of the sets that hold it.

    Each of the disjoint sets ``fixed`` starts as a region of its own. Then
    each set in turn cuts every region it meets into the part inside it and,
    right after, the part outside, and what no region held of it becomes a
    new region. So the regions come in an order that depends on
    which sets meet which, never on names, and the cut costs O(sets x
    regions) meets and differences, whatever the sets' sizes.
    """
    regions = [(f, ()) for f in fixed]
    for j, s in enumerate(sets):
        cut: list[tuple[ConstantSet, tuple[int, ...]]] = []
        for k, (r, held) in enumerate(regions):
            if not s:
                cut += regions[k:]
                break
            inside = r & s
            if not inside:
                cut.append((r, held))
                continue
            cut.append((inside, held + (j,)))
            if len(inside) < len(r):
                cut.append((r - inside, held))
            s = s - inside
        if s:
            cut.append((s, (j,)))
        regions = cut
    return regions


def _cover(blocks: Sequence[Block], weights: Sequence[int]) -> dict[Block, int]:
    """Disjoint blocks in canonical form covering ``blocks``, which may overlap.

    Each cover block maps to the summed weight of the input blocks that hold
    its tuples. A single block is its own cover; at width 0 the weights add
    up. Otherwise the distinct first sets are cut into regions (one per set
    when they are disjoint), each region's constants extend to the rests of
    the blocks that hold it, with their weights, and regions whose rests
    have equal covers merge. So the cover, as a set, depends only on which
    tuple carries which summed weight. Nothing is listed.
    """
    if len(blocks) <= 1:
        return {blocks[0]: weights[0]} if blocks else {}
    if not blocks[0]:
        return {(): sum(weights)}
    rests: dict[ConstantSet, list[tuple[Block, int]]] = {}
    for b, w in zip(blocks, weights):
        rests.setdefault(b[0], []).append((b[1:], w))
    firsts = list(rests)
    # a ragged binding's first sets are one pool plus many singletons, apart
    # once equal sets are merged; cutting them would cost O(sets^2) for nothing
    if sum(map(len, firsts)) == len(firsts[0].union(*firsts[1:])):
        regions = [(f, (j,)) for j, f in enumerate(firsts)]
    else:
        regions = _regions(firsts)
    united: dict[tuple, list[ConstantSet]] = {}  # many regions share their rests
    merged: dict[frozenset, tuple[dict[Block, int], list[ConstantSet]]] = {}
    for r, held in regions:
        rest = tuple(bw for j in held for bw in rests[firsts[j]])
        if rest not in united:
            cover = _cover([b for b, _ in rest], [w for _, w in rest])
            united[rest] = merged.setdefault(frozenset(cover.items()), (cover, []))[1]
        united[rest].append(r)
    return {(f[0].union(*f[1:]),) + b: w for cover, f in merged.values() for b, w in cover.items()}


def _union(blocks: Sequence[Block]) -> tuple[Block, ...]:
    """Disjoint blocks of one width in canonical form: their :func:`_cover`.

    They are one block when their sizes add up to the product of their
    column unions, a test that spares the cover on a product cut in pieces.
    Nothing is listed.
    """
    if len(blocks) <= 1:
        return tuple(blocks)
    # a column of equal sets keeps its first set, so a shared pool is not copied
    columns = tuple(c[0] if c.count(c[0]) == len(c) else c[0].union(*c[1:]) for c in zip(*blocks))
    if math.prod(map(len, columns)) == _count(blocks):
        return (columns,)
    return tuple(_cover(blocks, [0] * len(blocks)))


def _project(c: Constraint, keep: Sequence[Logvar]) -> tuple[Block, ...]:
    """``c``'s tuples cut down to ``keep``: the :func:`_cover` of its cut blocks."""
    pos = [c.position(lv) for lv in keep]
    return tuple(_cover([tuple(b[i] for i in pos) for b in c.blocks], [0] * len(c.blocks)))


def _cut_counts(c: Constraint, pos: Sequence[int]) -> dict[Block, int]:
    """``c``'s tuples cut down to ``pos``, as a weighted :func:`_cover`.

    A cut block weighs the product of the sets it dropped, so a cover
    block's weight is how many groundings of ``c`` extend each of its tuples.
    """
    cut = [tuple(b[i] for i in pos) for b in c.blocks]
    return _cover(cut, [math.prod(map(len, b)) // math.prod(map(len, k)) for b, k in zip(c.blocks, cut)])


# A group is the instance set of one argument: a frozenset of the blocks
# _project gives for it, so equal instance sets give equal groups.


def _group(c: Constraint, params: Sequence[Logvar]) -> frozenset[Block]:
    return frozenset(_project(c, params))


def _count(group: Collection[Block]) -> int:
    return sum(math.prod(map(len, b)) for b in group)


def _least(group: frozenset[Block]) -> tuple[Constant, ...]:
    """The least instance of a group, in the string order ``_listed`` sorts by."""

    def first(s: ConstantSet) -> Constant:
        # a run's least name is x{lo} or the first power of ten past lo
        # (x100 sorts before x99), whichever sorts first
        ends = []
        for lo, hi in s.runs:
            ten = 10 ** len(str(lo))
            ends += [lo, ten] if ten <= hi else [lo]
        least = min(itertools.chain(s.named, (f"x{i}" for i in ends)))
        return least if type(least) is Constant else Constant(least)

    return min(tuple(map(first, b)) for b in group)


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
    if not inside:  # no block meets the group: the rest is all of c
        return Constraint(c.logvars), c
    return Constraint(c.logvars, inside), Constraint(c.logvars, outside)


def _peel(c: Constraint, named: Collection[Constant]) -> dict[tuple, Constraint]:
    """``c`` split by which ``named`` constant each logvar binds, ``""`` for any other.

    Each logvar in turn splits every part (:func:`_split`) on each named
    constant, and what is left binds none of them; a part is keyed as keying
    every tuple that way would key it (no constant has an empty name).
    """
    parts = {(): c} if c.blocks else {}
    for lv in c.logvars:
        cut = {}
        for key, rest in parts.items():
            for k in named:
                cut[key + (k,)], rest = _split(rest, (lv,), frozenset({(ConstantSet((k,)),)}))
            cut[key + ("",)] = rest
        parts = {key: part for key, part in cut.items() if part.blocks}
    return parts


def _join(c1: Constraint, c2: Constraint) -> Constraint:
    """The join of two constraints that pair their groundings one-to-one.

    Each side's groundings are counted by their key, their instance on the
    shared logvars (:func:`_cut_counts`). They pair exactly when each key counts
    one grounding on each side and both sides hold the same keys, and then
    the two canonical covers are equal, with every weight 1. A block whose
    dropped sets hold more than one tuple already counts a key twice, and
    cover weights only add up, so such a block is refused before any cover
    is built; one block on each side is its own cover. Each pair of blocks
    joins on the meet of their keys, which equal key sets are of themselves.
    A failed pairing raises :class:`ConstraintsMisaligned`.
    """
    shared = [lv for lv in c2.logvars if lv in c1.logvars]
    extra = tuple(lv for lv in c2.logvars if lv not in c1.logvars)
    s1, s2 = [c1.position(lv) for lv in shared], [c2.position(lv) for lv in shared]
    x2 = [c2.position(lv) for lv in extra]
    paired = all(
        math.prod(len(s) for i, s in enumerate(b) if i not in pos) == 1
        for c, pos in ((c1, s1), (c2, s2))
        for b in c.blocks
    )
    if paired and len(c1.blocks) == len(c2.blocks) == 1:
        paired = [c1.blocks[0][i] for i in s1] == [c2.blocks[0][j] for j in s2]
    elif paired:
        n1 = _cut_counts(c1, s1)
        paired = all(w == 1 for w in n1.values()) and n1 == _cut_counts(c2, s2)
    if not paired:
        raise ConstraintsMisaligned("constraints misaligned: join does not pair groundings one-to-one")
    joined = []
    for b1 in c1.blocks:
        for b2 in c2.blocks:
            b = list(b1)
            for i, j in zip(s1, s2):
                b[i] = b1[i] if b1[i] == b2[j] else b1[i] & b2[j]
            if all(b):
                joined.append(tuple(b) + tuple(b2[j] for j in x2))
    return Constraint(c1.logvars + extra, joined)


def _uniform_count(c: Constraint, keep: Sequence[Logvar]) -> tuple[int, Constraint]:
    """How many groundings each tuple cut down to ``keep`` extends to, and the projection.

    Both come from :func:`_cut_counts`. Raises :class:`NotCountNormalized` when
    the count differs between kept tuples or ``c`` has no tuples.
    """
    if not c.blocks:
        raise NotCountNormalized("not count-normalized: the constraint has no tuples")
    keep = tuple(keep)
    counts = _cut_counts(c, [c.position(lv) for lv in keep])
    distinct = set(counts.values())
    if len(distinct) != 1:
        raise NotCountNormalized(
            f"not count-normalized: kept tuples extend to {sorted(distinct)} groundings"
        )
    return distinct.pop(), Constraint(keep, tuple(counts))


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


def _shape(
    m: ParameterisedModel, fixed: Sequence[ConstantSet]
) -> tuple[tuple[int, ...], tuple, list[ConstantSet]]:
    """Region sizes and a structure that key ``m`` for one query, and the regions.

    Every block set of every parfactor is cut into regions (:func:`_regions`),
    after ``fixed`` (the query's constants, one set each, in sorted order) as
    regions of their own. The structure holds, per parfactor, its table, its
    logvars and each block as the regions each of its sets covers. Models
    with equal structures map onto each other region by region, each region
    onto the region of the same place, and one model's blocks onto the
    other's, one by one, with ``fixed`` fixed; when the region sizes are
    equal too, the map is a renaming of constants. Models whose blocks come
    in another order get other structures.

    It is the one definition of a model's key, at O(sets x regions) set
    operations (about 14 µs on a bundled world), so ``query_all`` runs it
    only on the first model of each form (``ParameterisedModel.form``) and
    on each planned model.
    """
    sets = list(dict.fromkeys(s for p in m.parfactors for b in p.constraint.blocks for s in b))
    regions = _regions(sets, fixed)
    covers: dict[ConstantSet, list[int]] = {s: [] for s in sets}
    for i, (_, held) in enumerate(regions):
        for j in held:
            covers[sets[j]].append(i)
    cover = {s: tuple(c) for s, c in covers.items()}.__getitem__
    structure = tuple([
        (
            p.table.args,
            p.table.values.tobytes(),
            p.constraint.logvars,
            tuple([tuple(map(cover, b)) for b in p.constraint.blocks]),
        )
        for p in m.parfactors
    ])
    return tuple(len(r) for r, _ in regions), structure, [r for r, _ in regions]


def _member(s: ConstantSet) -> str:
    """One constant of the non-empty set ``s``: a probe for the region that holds it."""
    return next(iter(s.named)) if s.named else f"x{s.runs[0][0]}"


def _inside(c: Constraint, named: Collection[Constant]) -> bool:
    """Whether ``c``'s tuples use no constant but ``named`` ones."""
    return all(len(s) == sum(k in s for k in named) for b in c.blocks for s in b)


def _at_sizes(plan, regions: Sequence[ConstantSet], sizes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The sign of every check of ``plan`` (an ``engine._Plan``) and every exponent, per row of region sizes.

    ``regions`` are the planned model's (:func:`_shape`), and each row of
    ``sizes`` gives a model of the same structure's region sizes in that
    order. Every set of the plan is a union of regions, so every count is a
    sum of products of sums of region sizes: a vector of Python ints, one
    per row. A ``"pair"`` check compares two sums of counts; a ``"one"`` or
    ``"same"`` check compares each of a cut's counts with 1 or with its
    first count. A model makes every decision of the plan when its signs
    equal the planned model's. Exponents are floats, as the tables they
    scale. The caches live for one call and are keyed by value.
    """
    rows = np.array(sizes, dtype=object).reshape(len(sizes), len(regions))
    probes = list(map(_member, regions))
    one = np.ones(len(rows), dtype=object)
    sets: dict[ConstantSet, tuple[list[int], np.ndarray]] = {}
    counts: dict = {}  # by a constraint's blocks or a group
    cuts: dict = {}  # by a constraint's blocks and the cut positions

    def at(s: ConstantSet) -> tuple[list[int], np.ndarray]:
        if s not in sets:  # the regions s holds, and its size per row
            held = [i for i, k in enumerate(probes) if k in s]
            sets[s] = held, rows[:, held].sum(axis=1)
        return sets[s]

    def count(blocks: tuple[Block, ...] | frozenset[Block]) -> np.ndarray:
        if blocks not in counts:
            counts[blocks] = sum((math.prod((at(s)[1] for s in b), start=one) for b in blocks), start=0 * one)
        return counts[blocks]

    def cut(c: Constraint, pos: Sequence[int]) -> list[np.ndarray]:
        # how many groundings extend each tuple, per tuple of regions c's sets at pos hold
        key = c.blocks, tuple(pos)
        if key not in cuts:
            by: dict[tuple, list[Block]] = {}
            for b in c.blocks:
                for held in itertools.product(*(at(b[i])[0] for i in pos)):
                    by.setdefault(held, []).append(tuple(s for i, s in enumerate(b) if i not in pos))
            cuts[key] = [count(tuple(rests)) for rests in by.values()]
        return cuts[key]

    signs = []
    for kind, *args in plan.checks:
        if kind == "pair":
            a, b = (sum(count(x.blocks if isinstance(x, Constraint) else x) for x in side) for side in args)
            signs.append(np.sign(a - b))
        else:
            counted = cut(*args)
            base = 1 if kind == "one" else counted[0]
            signs += [np.sign(v - base) for v in counted]
    exponents = [cut(c, pos)[0] for c, pos in plan.powers]
    n = len(sizes)
    return (
        np.array(signs, dtype=object).reshape(len(signs), n).T,
        np.array(exponents, dtype=float).reshape(len(exponents), n).T,
    )

