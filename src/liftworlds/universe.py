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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domains import DomainSpec, WorldFilter, enumerate_worlds, filter_worlds
from .errors import ValidationError
from .model import Parfactor, ParameterisedModel, TemplateModel
from .program import ConstraintWorld, EvaluationMemo, Program, _checked, evaluate, uniformize


@dataclass(frozen=True)
class Provenance:
    """Where a weighted model came from: domain world and constraint world indices."""

    domain_world: int
    constraint_world: int
    domain_sizes: dict[str, int]
    varying: tuple[str, ...] = ()

    @property
    def world_id(self) -> str:
        return f"{self.domain_world}.{self.constraint_world}"

    @property
    def domain_size(self) -> int:
        """Size of the varying part of the universe (all of it if nothing varies)."""
        names = self.varying or tuple(self.domain_sizes)
        return sum(self.domain_sizes[n] for n in names)


@dataclass(frozen=True)
class WeightedModel:
    """A parameterised model with its world probability; ``model`` is None,
    and so ``degenerate`` true, when the constraint world was degenerate."""

    model: ParameterisedModel | None
    prob: float
    provenance: Provenance

    @property
    def degenerate(self) -> bool:
        return self.model is None


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
    constraint world order. Degenerate worlds are kept but flagged, with
    ``model`` left as None, so downstream code can report rather than hide
    them. Each model carries its constraint world's ``form``, which holds for
    the template of this call only.
    """
    dws = list(enumerate_worlds(u.domain_spec, u.template))
    if dws and all(w.prob is None for w in dws):
        dws = uniformize(dws)
    indexed = list(enumerate(dws))
    if u.filter is not None:
        kept = set(
            id(w) for w in filter_worlds([w for _, w in indexed], u.filter).kept
        )
        indexed = [(k, w) for k, w in indexed if id(w) in kept]
    names = {lv.name for lv in u.template.logvars}
    varying = tuple(n for n in u.domain_spec.varying() if n in names)

    # one memo per call, so no process-wide cache keeps tuples alive after
    # the models that hold them are gone
    memo = EvaluationMemo((u.program, u.template, u._check))
    out: list[WeightedModel] = []
    for k, dw in indexed:
        for j, cw in enumerate(evaluate(u.program, u.template, dw, memo)):
            weight = dw.prob * cw.prob
            if u.filter is not None and u.filter.cascade and weight <= u.filter.threshold:
                continue
            model = None if cw.degenerate else instantiate(u.template, cw)
            if model is not None:  # no argument, so a replaced or hand-built model has none
                object.__setattr__(model, "form", cw.form)
            out.append(WeightedModel(model, weight, Provenance(k, j, dw.sizes(), varying)))
    return tuple(out)


def manifest_rows(models: tuple[WeightedModel, ...], tmpl: TemplateModel) -> list[dict]:
    """Plot- and file-ready rows describing an expansion, one per model."""
    rows = []
    for wm in models:
        row: dict = {"world_id": wm.provenance.world_id}
        for lv in tmpl.logvars:
            row[f"size_{lv.name}"] = wm.provenance.domain_sizes[lv.name]
        row["constraint_world"] = wm.provenance.constraint_world
        row["weight"] = wm.prob
        row["degenerate"] = wm.degenerate
        rows.append(row)
    return rows
