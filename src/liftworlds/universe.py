"""Expanding a template + program + domain spec into weighted models.

The triple fixes a distribution over parameterised models: every retained
domain world is fed to the constraint program, every resulting constraint
world instantiates the template, and the model weight is the product of the
two world probabilities (the sides are independent by construction). The
program always weights its worlds; unweighted domain worlds are completed to
the uniform distribution before combining.

Threshold filtering happens on domain worlds first and, when cascading, a
second time on the combined weights. Nothing is ever renormalized; weights
of the surviving models simply sum to the retained mass.

A world is built when read, and until then it holds a few references.
``expand`` hands out each world as its weight, its provenance (indices and
the sizes of its domain world, one read-only mapping that the worlds of
that domain world share), its ``degenerate`` flag, and its constraint
world's recipe and type pools, which its ``form`` is read off and its
``model`` instantiated from, when first read, and kept. The manifest and
the keying of ``query_all`` build no model. So an unread world is two
objects of its own, its weighted model and its provenance; the rest is
shared with the worlds of its shape or of its domain world, and the
constraint world ``evaluate`` made for it is let go.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .domains import DomainSpec, WorldFilter, enumerate_worlds, filter_worlds
from .errors import ValidationError
from .model import Parfactor, ParameterisedModel, TemplateModel
from .program import ConstraintWorld, EvaluationMemo, Program, _checked, _set_slots, evaluate, uniformize


class Provenance(namedtuple("Provenance", ("domain_world", "constraint_world", "domain_sizes", "varying"))):
    """Where a weighted model came from: domain world and constraint world indices.

    ``domain_sizes`` is read-only: a dict given is copied into a
    ``MappingProxyType``, and a proxy given is kept, so the worlds of one
    domain world share one and none can change another's sizes. A named
    tuple, so it is immutable and ``expand`` makes one per world at the
    cost of a tuple. It pickles through a dict copy of its sizes, so
    worlds unpickled separately no longer share one sizes mapping.
    """

    __slots__ = ()
    domain_world: int
    constraint_world: int
    domain_sizes: Mapping[str, int]
    varying: tuple[str, ...]

    def __new__(cls, domain_world: int, constraint_world: int, domain_sizes: Mapping[str, int], varying=()):
        if type(domain_sizes) is not MappingProxyType:
            domain_sizes = MappingProxyType(dict(domain_sizes))
        return tuple.__new__(cls, (domain_world, constraint_world, domain_sizes, varying))

    @classmethod
    def _make(cls, iterable) -> "Provenance":
        # so that _replace makes its copy read-only too
        return cls(*iterable)

    def __reduce__(self):
        # a mappingproxy does not pickle; the constructor makes the copy read-only again
        return Provenance, (self.domain_world, self.constraint_world, dict(self.domain_sizes), self.varying)

    @property
    def world_id(self) -> str:
        return f"{self.domain_world}.{self.constraint_world}"

    @property
    def domain_size(self) -> int:
        """Size of the varying part of the universe (all of it if nothing varies)."""
        names = self.varying or tuple(self.domain_sizes)
        return sum(self.domain_sizes[n] for n in names)


@dataclass(init=False, slots=True)
class WeightedModel:
    """A parameterised model with its world probability and provenance.

    ``model`` is None, and ``degenerate`` true, when the constraint world
    was degenerate. A world that :func:`expand` made is given ``source``,
    its constraint world, and keeps that world's ``degenerate``, recipe and
    pools; it builds ``model`` through :func:`instantiate` on first read,
    and keeps it, and a pickle or a copy of it holds no model it has not
    built. ``form`` is ``(recipe, pools)`` when the recipe is formed
    and None otherwise; it holds for the template of one ``expand`` call
    only. Hand-built worlds and copies made by ``dataclasses.replace`` have
    no recipe, so ``query_all`` keys each of them as a form of its own.

    Like a :class:`ConstraintWorld`, it is not frozen, to be cheap to make,
    and its fields are not to be assigned.
    """

    model: ParameterisedModel | None
    prob: float
    provenance: Provenance
    degenerate: bool = field(default=False, init=False, compare=False, repr=False)
    _recipe: object = field(default=None, init=False, compare=False, repr=False)
    _pools: tuple = field(default=(), init=False, compare=False, repr=False)

    def __init__(self, model, prob, provenance, source: ConstraintWorld | None = None):
        self.prob = prob
        self.provenance = provenance
        if source is None:
            self.model = model
            self.degenerate = model is None
            self._recipe, self._pools = None, ()
        else:
            self.degenerate = source.degenerate
            self._recipe, self._pools = source._recipe, source._pools

    def __getattr__(self, name):
        # only the model of a world that expand made is missing until read
        if name != "model":
            raise AttributeError(name)
        recipe = self._recipe
        self.model = None if self.degenerate else instantiate(
            recipe.template, ConstraintWorld(None, None, (), False, recipe, self._pools)
        )
        return self.model

    __getstate__ = _set_slots

    @property
    def form(self) -> tuple | None:
        recipe = self._recipe
        return (recipe, self._pools) if recipe is not None and recipe.formed else None


@dataclass(frozen=True)
class UniverseModel:
    """The full specification of a model with an unknown universe.

    The program is checked against the template when the triple is made,
    and ``expand`` reuses what the check gives (``program._checked``).
    """

    template: TemplateModel
    program: Program
    domain_spec: DomainSpec
    filter: WorldFilter | None = None
    _check: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_check", _checked(self.program, self.template))
        for lv in self.template.logvars:
            if lv.name not in self.domain_spec.entries:
                raise ValidationError(f"missing domain spec for logvar {lv.name!r}")


def instantiate(tmpl: TemplateModel, cw: ConstraintWorld) -> ParameterisedModel:
    """Fill the template's empty constraints with the world's constraints."""
    if len(cw.constraints) != len(tmpl.parfactors):
        raise ValidationError("invalid constraint world: wrong number of constraints")
    parfactors = []
    for name, pf, constraint in zip(tmpl.names, tmpl.parfactors, cw.constraints):
        if not constraint.size:
            raise ValidationError(f"invalid constraint world: empty constraint for {name!r}")
        if constraint.logvars != pf.constraint.logvars:
            raise ValidationError(
                f"invalid constraint world: logvars {[l.name for l in constraint.logvars]} "
                f"do not match parfactor {name!r}"
            )
        parfactors.append(Parfactor(pf.table, constraint))
    return ParameterisedModel(tuple(parfactors))


def expand(u: UniverseModel) -> tuple[WeightedModel, ...]:
    """All weighted models of the triple, in deterministic order.

    Order is by domain world (ascending sizes), then by the program's
    constraint world order. Degenerate worlds are kept, flagged and with
    ``model`` None, so downstream code can report rather than hide them.

    No model is built here: each world builds its own on first read
    (:class:`WeightedModel`). Every check that can refuse the triple (its
    domain spec, its program against the template, a missing domain) runs
    in this call, and reading a model raises none.
    """
    dws = enumerate_worlds(u.domain_spec, u.template)
    if dws and all(w.prob is None for w in dws):
        dws = uniformize(dws)
    kept = None if u.filter is None else {id(w) for w in filter_worlds(dws, u.filter).kept}
    names = {lv.name for lv in u.template.logvars}
    varying = tuple(n for n in u.domain_spec.varying() if n in names)

    # one memo per call, so no process-wide cache keeps tuples alive after
    # the models that hold them are gone
    memo = EvaluationMemo((u.program, u.template, u._check))
    cut = u.filter.threshold if u.filter is not None and u.filter.cascade else None
    out: list[WeightedModel] = []
    dws = list(dws)
    for k in range(len(dws)):
        # a domain world is let go once its worlds are made, so the garbage
        # collector does not scan the rest again and again; the ids in kept
        # are of domain worlds that were all alive together, so none repeats
        dw, dws[k] = dws[k], None
        if kept is not None and id(dw) not in kept:
            continue
        prob, sizes = dw.prob, MappingProxyType(dw.sizes())  # sizes shared by the worlds of one domain world
        for j, cw in enumerate(evaluate(u.program, u.template, dw, memo)):
            weight = prob * cw.prob
            if cut is None or weight > cut:
                out.append(WeightedModel(None, weight, Provenance(k, j, sizes, varying), cw))
    return tuple(out)


def manifest_rows(models: tuple[WeightedModel, ...], tmpl: TemplateModel) -> list[dict]:
    """Plot- and file-ready rows describing an expansion, one per model."""
    columns = [(f"size_{lv.name}", lv.name) for lv in tmpl.logvars]
    rows = []
    for wm in models:
        p = wm.provenance
        row: dict = {"world_id": p.world_id}
        for column, name in columns:
            row[column] = p.domain_sizes[name]
        row["constraint_world"] = p.constraint_world
        row["weight"] = wm.prob
        row["degenerate"] = wm.degenerate
        rows.append(row)
    return rows
