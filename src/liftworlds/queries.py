"""Queries over a weighted model set: answer distributions and selections.

Running one query against every expanded model yields a set of answers that
inherits the model weights. On top of that sit the selection queries:
top-k by event probability, top-k by model probability, the skyline (the
Pareto frontier over both), and trend classification over ascending domain
sizes. Weights are reported raw; when filtering dropped mass upstream, the
per-answer model probabilities simply do not sum to 1.

Worlds that differ only by a renaming of constants the query does not
mention have the same answer (Niepert & Van den Broeck, AAAI 2014), so
``query_all`` answers each such class once: it keys models by
``model._shape`` and shares one answer between the worlds of a key, within
one call. Those worlds then tie exactly in every selection. Worlds of one
structure that differ in their region sizes share one lifted plan and one
batched numeric run, as far as their sizes make the plan's decisions.
The worlds that ``expand`` made from one rule run share a *form* and one
structure, so ``query_all`` runs ``_shape`` on the first world of a form
and sizes the others' regions by their type pools (counts as functions of
set sizes, Kisynski & Poole, UAI 2009). A world's model is built when read,
so only the worlds it shapes, plans or runs alone build one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import MarginalDistribution, QuerySpec, _plan, _run, lifted_query
from .errors import InferenceError, ValidationError
from .model import ConstantSet, GroundAtom, _at_sizes, _member, _shape
from .universe import Provenance, WeightedModel


@dataclass(frozen=True)
class EventProbe:
    """One target atom taking one range value, e.g. Sick(x1) = true."""

    atom: GroundAtom
    value: str


@dataclass(frozen=True)
class AnswerEntry:
    provenance: Provenance
    model_prob: float
    answer: MarginalDistribution


@dataclass(frozen=True)
class SkippedModel:
    provenance: Provenance
    reason: str


@dataclass(frozen=True)
class AnswerSet:
    """Per-model answers in expansion order, plus the models that could not answer."""

    query: QuerySpec
    entries: tuple[AnswerEntry, ...]
    skipped: tuple[SkippedModel, ...] = ()

    @property
    def retained_mass(self) -> float:
        return sum(e.model_prob for e in self.entries)


@dataclass(frozen=True)
class Selection:
    """Entries picked by a top-k query; ``clipped`` means k exceeded the set."""

    entries: tuple[AnswerEntry, ...]
    clipped: bool = False


@dataclass(frozen=True)
class TrendReport:
    direction: str  # increasing | decreasing | constant | non-monotone | insufficient
    max_adjacent_delta: float
    entries: int


def query_all(models: Sequence[WeightedModel], q: QuerySpec) -> AnswerSet:
    """Answer ``q`` on every model that contains all its atoms.

    Degenerate models and models missing an atom (a constant absent from a
    small universe, say) are skipped and reported. Raises when no model at
    all can answer.

    Models are keyed by ``model._shape`` with the query's constants fixed:
    a structure, and the sizes of its regions. Models with equal keys map
    onto each other by a renaming of the other constants, so they share one
    answer object. Each model is first keyed by the tag of its form
    (``WeightedModel.form``) and :func:`_placement`, and a model with no
    form is a form of its own. Only the first model of each form key runs
    ``_shape``; the others take its structure, and region sizes that
    :func:`_sizing` works out from their pools, so every model gets the key
    ``_shape`` would give it. Keying reads a world's ``degenerate`` and
    ``form`` only, so it builds no model (``WeightedModel``): only the
    worlds that ``_shape``, ``_plan`` or a lone :func:`lifted_query` reads
    are built. The models of one structure share one plan
    (``engine._plan``) and one batched run, as far as their sizes make the
    plan's decisions (:func:`_answers`). A shared answer equals a model's
    own :func:`lifted_query` up to rounding: the engine breaks cost ties by
    the least unmentioned name, which a model of the same structure may have
    elsewhere. Errors surface as in :func:`lifted_query`.
    """
    skipped: list[SkippedModel] = []
    atoms = tuple(q.targets) + q.evidence.atoms()
    names = sorted({c for a in atoms for c in a.args})
    fixed, taken = [ConstantSet((c,)) for c in names], ConstantSet(names)
    # structure -> the atoms it lacks (the query's constants are regions of
    # their own, so the structure says), the first world and regions (None
    # when sized from its form) of each region-size vector, and the answers
    # by region sizes
    structures: dict[tuple, tuple[list, dict, dict]] = {}
    forms: dict[tuple, tuple[tuple, list]] = {}  # form key -> its group and sizing
    placements: dict[tuple, tuple] = {}  # pools -> where the query's constants fall
    shared: dict[tuple, tuple] = {}  # one tuple per region-size vector
    # per keyed world, in parallel: the world, its structure's answers and its sizes
    keyed: list[WeightedModel] = []
    keyed_answers: list[dict] = []
    keyed_sizes: list[tuple] = []
    for wm in models:
        if wm.degenerate:
            skipped.append(SkippedModel(wm.provenance, "degenerate world"))
            continue
        tag, pools = wm.form or (object(), ())
        if pools not in placements:  # the choice worlds of a domain world share its pools
            placements[pools] = _placement(pools, names)
        key = tag, placements[pools]
        if key in forms:
            group, sizing = forms[key]
            lengths = [len(p) for p in pools]
            sizes, regions = tuple([n + sum(map(lengths.__getitem__, held)) for n, held in sizing]), None
        else:
            sizes, structure, regions = _shape(wm.model, fixed)
            group = structures.get(structure)
            if group is None:
                group = structures[structure] = ([a for a in atoms if not wm.model.contains_atom(a)], {}, {})
            forms[key] = group, _sizing(pools, taken, sizes, regions)
        missing, worlds, answers = group
        if missing:
            skipped.append(SkippedModel(wm.provenance, f"atom {missing[0]} not in model"))
            continue
        sizes = shared.setdefault(sizes, sizes)
        worlds.setdefault(sizes, (wm, regions))
        keyed.append(wm)
        keyed_answers.append(answers)
        keyed_sizes.append(sizes)
    if models and not keyed:
        raise InferenceError("no model can answer the query: " + skipped[0].reason)
    for structure, (_, worlds, answers) in structures.items():
        answers.update(_answers(worlds, q, fixed, structure))
    entries = tuple([
        AnswerEntry(wm.provenance, wm.prob, answers[sizes])
        for wm, answers, sizes in zip(keyed, keyed_answers, keyed_sizes)
    ])
    return AnswerSet(q, entries, tuple(skipped))


def _placement(pools: Sequence[ConstantSet], names: Sequence[str]) -> tuple:
    """Where the query's constants ``names`` fall among a formed model's pools.

    The index of the pool that holds each constant (-1 for none), and
    whether that pool holds a constant besides the query's. The models of
    one form tag and placement have one ``_shape`` structure: a query
    constant cuts its pool's region, and a pool it empties leaves none.
    """
    placed = tuple(next((i for i, p in enumerate(pools) if c in p), -1) for c in names)
    return placed, tuple(i < 0 or len(pools[i]) > placed.count(i) for i in placed)


def _sizing(
    pools: Sequence[ConstantSet], taken: ConstantSet, sizes: Sequence[int], regions: Sequence[ConstantSet]
) -> list[tuple[int, tuple[int, ...]]]:
    """Per region of a formed model's ``_shape``, its size besides its pools' and those pools.

    Every set of the model is a union of pools and named constants, so each
    region holds all of a pool but the query's constants ``taken``, or none
    of it, and one probe per pool finds its region. A model of the same
    form key has the same regions, and each one's size is the same constant
    plus its own sizes of the same pools.
    """
    held: list[list[int]] = [[] for _ in regions]
    for i, pool in enumerate(pools):
        rest = pool - taken
        if rest:
            probe = _member(rest)
            r = next((r for r, region in enumerate(regions) if probe in region), None)
            if r is not None:  # a pool no block uses is in no region
                held[r].append(i)
    return [(n - sum(len(pools[i]) for i in h), tuple(h)) for n, h in zip(sizes, held)]


def _answers(
    worlds: dict[tuple[int, ...], tuple[WeightedModel, list | None]],
    q: QuerySpec,
    fixed: Sequence[ConstantSet],
    structure: tuple,
) -> dict[tuple[int, ...], MarginalDistribution]:
    """One answer per region-size vector of one structure, with as few plans as agree.

    The last pending world is planned (``engine._plan``), and every pending
    world whose sizes make all the plan's decisions (``model._at_sizes``
    counts the plan's checks at each world's sizes) runs in one batch.
    The others wait for the next plan. Worlds come in ascending size from
    ``expand``, and the largest is the least likely to sit on a cost tie or
    a region of one constant, which other sizes do not share. A plan whose
    phase 2 grounds more than the query's constants is not batched: its
    world runs it, and the others run alone. A last world left alone runs
    :func:`lifted_query`. Only the worlds planned or run alone build their
    model. A planned world sized from its form runs
    ``_shape`` (with ``fixed``, the query's constants) for its regions, and
    raises unless its sizes and ``structure`` are the ones it was keyed by.
    """
    answers: dict[tuple[int, ...], MarginalDistribution] = {}
    pending = list(worlds)
    while len(pending) > 1:
        wm, regions = worlds[pending[-1]]
        model = wm.model
        if regions is None:
            sizes, shape, regions = _shape(model, fixed)
            if sizes != pending[-1] or shape != structure:
                raise InferenceError("a world's form gave other region sizes than its shape")
        plan = _plan(model, q)
        if not plan.batchable:
            answers[pending[-1]] = _run(plan, [plan.exponents])[0]
            answers.update((sizes, lifted_query(worlds[sizes][0].model, q)) for sizes in pending[:-1])
            return answers
        signs, exponents = _at_sizes(plan, regions, pending)
        agree = np.all(signs == signs[-1], axis=1)
        answers.update(zip([s for s, ok in zip(pending, agree) if ok], _run(plan, exponents[agree])))
        pending = [s for s, ok in zip(pending, agree) if not ok]
    if pending:
        answers[pending[0]] = lifted_query(worlds[pending[0]][0].model, q)
    return answers


def event_probability(answer: MarginalDistribution, e: EventProbe) -> float:
    return answer.event_prob(e.atom, e.value)


def _probe_values(a: AnswerSet, e: EventProbe) -> list[float]:
    return [event_probability(entry.answer, e) for entry in a.entries]


def top_k_query_prob(a: AnswerSet, e: EventProbe, k: int) -> Selection:
    """The k entries with the highest event probability, descending.

    Ties go to the higher model probability, then to expansion order. Asking
    for more entries than exist returns them all, flagged. Worlds that
    ``query_all`` answered as one renaming class share one answer, so they
    tie exactly. Other ties are exact comparisons of floats too.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    probes = _probe_values(a, e)
    order = sorted(
        range(len(a.entries)),
        key=lambda i: (-probes[i], -a.entries[i].model_prob, i),
    )
    picked = tuple(a.entries[i] for i in order[:k])
    return Selection(picked, clipped=k > len(a.entries))


def top_k_model_prob(a: AnswerSet, k: int) -> Selection:
    """The k most probable models' entries, descending by model probability."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    order = sorted(range(len(a.entries)), key=lambda i: (-a.entries[i].model_prob, i))
    picked = tuple(a.entries[i] for i in order[:k])
    return Selection(picked, clipped=k > len(a.entries))


def skyline(a: AnswerSet, e: EventProbe) -> tuple[AnswerEntry, ...]:
    """The Pareto frontier maximizing (model probability, event probability).

    An entry is kept iff no other entry is at least as good in both
    coordinates and strictly better in one. Exact duplicates of a frontier
    point are all kept. Output is ordered by model probability descending.
    """
    probes = _probe_values(a, e)
    points = [(a.entries[i].model_prob, probes[i], i) for i in range(len(a.entries))]
    points.sort(key=lambda t: (-t[0], -t[1], t[2]))
    kept: list[tuple[float, float, int]] = []
    best_p = None
    for m, p, i in points:
        if kept and (m, p) == (kept[-1][0], kept[-1][1]):
            kept.append((m, p, i))  # exact duplicate of a frontier point
        elif best_p is None or p > best_p:
            kept.append((m, p, i))
            best_p = p
    return tuple(a.entries[i] for _, _, i in kept)


def trend_report(a: AnswerSet, e: EventProbe) -> TrendReport:
    """Classify the event probability over models sorted by ascending domain size.

    Adjacent worlds of one renaming class share one answer, so their delta
    is exactly 0; other deltas are compared with 0 exactly.
    """
    ordered = sorted(
        range(len(a.entries)), key=lambda i: (a.entries[i].provenance.domain_size, i)
    )
    probes = _probe_values(a, e)
    series = [probes[i] for i in ordered]
    if len(series) < 2:
        return TrendReport("insufficient", 0.0, len(series))
    deltas = [b - x for x, b in zip(series, series[1:])]
    max_delta = max(abs(d) for d in deltas)
    if all(d == 0 for d in deltas):
        direction = "constant"
    elif all(d >= 0 for d in deltas):
        direction = "increasing"
    elif all(d <= 0 for d in deltas):
        direction = "decreasing"
    else:
        direction = "non-monotone"
    return TrendReport(direction, max_delta, len(series))
