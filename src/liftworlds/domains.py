"""Domain worlds: declarative specs for the universes a model may live in.

A domain spec gives each logvar either a fixed constant list, an explicit
enumeration of weighted alternatives, or a binned beta-binomial distribution
over sizes (bin k of n holds size ``step * k``, weighted by the pmf at k;
the k = 0 bin is dropped without renormalizing, a size-zero domain being
impossible). Synthetic constants are named x1, x2, ... after any guaranteed
constants, so runs are reproducible. A domain lists each constant once, so a
guaranteed constant may not take a synthetic name.

A world's domain is a :class:`~liftworlds.model.ConstantSet`: a bin of a
beta-binomial entry is its guaranteed constants plus one run of synthetic
names, so enumerating the worlds makes no constant for a synthetic name and
costs the same at any bin width. A domain world holds one such set per
logvar and its weight, and little else: the bins of an entry share one set
of named constants, a fixed domain's set is shared by every world, and the
log-gamma terms of the weights that do not depend on the bin are taken once
per entry, through the same code as :func:`beta_binomial_pmf`, so the
weights are its values to the bit.

Threshold filtering keeps worlds whose probability exceeds t and never
renormalizes; the retained mass is reported instead so callers can see how
much of the distribution they kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import exp, lgamma, prod
from typing import Generic, Sequence, TypeVar

from .errors import ValidationError
from .model import Constant, ConstantSet, Logvar, TemplateModel, _synthetic


def _distinct(constants: Sequence[Constant], what: str) -> None:
    """A domain's size counts its constants, so none may be listed twice."""
    if len(set(constants)) != len(constants):
        raise ValidationError(f"{what} lists a constant twice")


@dataclass(frozen=True, init=False)
class DomainWorld:
    """One domain per logvar, optionally weighted; a domain given as constants becomes a set."""

    domains: dict[Logvar, ConstantSet]
    prob: float | None = None

    def __init__(self, domains: dict, prob: float | None = None):
        sets = {}
        for lv, cs in domains.items():
            if type(cs) is not ConstantSet:
                cs = ConstantSet(cs)
            if not cs.size:
                raise ValidationError(f"domain for logvar {lv.name} must not be empty")
            sets[lv] = cs
        if prob is not None and not 0.0 <= prob <= 1.0:
            raise ValidationError("world probability must lie in [0, 1]")
        set_ = object.__setattr__
        set_(self, "domains", sets)
        set_(self, "prob", prob)

    def sizes(self) -> dict[str, int]:
        return {str(lv): cs.size for lv, cs in self.domains.items()}


@dataclass(frozen=True)
class FixedDomain:
    """The logvar always holds exactly these constants."""

    constants: tuple[Constant, ...]

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(self.constants))
        if not self.constants:
            raise ValidationError("fixed domain must not be empty")
        _distinct(self.constants, "fixed domain")


@dataclass(frozen=True)
class EnumeratedDomain:
    """Explicitly listed alternative domains, all weighted or all unweighted."""

    options: tuple[tuple[tuple[Constant, ...], float | None], ...]

    def __post_init__(self):
        options = tuple((tuple(cs), p) for cs, p in self.options)
        object.__setattr__(self, "options", options)
        if not options:
            raise ValidationError("enumerated domain needs at least one option")
        probs = [p for _, p in options]
        if any(p is None for p in probs) and any(p is not None for p in probs):
            raise ValidationError("either all or none of the enumerated options carry probabilities")
        if probs[0] is not None and abs(sum(probs) - 1.0) > 1e-9:
            raise ValidationError(f"enumerated probabilities sum to {sum(probs)}, expected 1")
        for cs, _ in options:
            if not cs:
                raise ValidationError("enumerated domain option must not be empty")
            _distinct(cs, "enumerated domain option")

    @property
    def weighted(self) -> bool:
        return self.options[0][1] is not None


@dataclass(frozen=True)
class BetaBinomialDomain:
    """Binned beta-binomial distribution over domain sizes step, 2*step, ..., bins*step."""

    alpha: float
    beta: float
    bins: int
    step: int
    guaranteed: tuple[Constant, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "guaranteed", tuple(self.guaranteed))
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("alpha and beta must be positive")
        counts = (self.bins, self.step)
        if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in counts):
            raise ValidationError(f"bins and step must be positive integers, got {counts}")
        _distinct(self.guaranteed, "guaranteed constants")
        g, n = len(self.guaranteed), self.step * self.bins
        for c in self.guaranteed:
            if g < _synthetic(c) <= n:  # synthetic: x{g+1} .. x{n}
                raise ValidationError(f"guaranteed constant '{c}' is also a synthetic constant's name")


DomainEntry = FixedDomain | EnumeratedDomain | BetaBinomialDomain


@dataclass(frozen=True)
class DomainSpec:
    """One domain entry per logvar name."""

    entries: dict[str, DomainEntry]

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    def varying(self) -> tuple[str, ...]:
        """Logvar names whose domain actually varies between worlds."""
        return tuple(
            sorted(n for n, e in self.entries.items() if not isinstance(e, FixedDomain))
        )


@dataclass(frozen=True)
class WorldFilter:
    """Keep worlds with probability strictly above ``threshold``.

    With ``cascade`` set, the threshold is applied a second time to the
    combined domain-world x constraint-world weights.
    """

    threshold: float
    cascade: bool = False

    def __post_init__(self):
        if not 0.0 <= self.threshold < 1.0:
            raise ValidationError("threshold must lie in [0, 1)")


T = TypeVar("T")


@dataclass(frozen=True)
class FilterResult(Generic[T]):
    kept: tuple[T, ...]
    retained_mass: float
    total_mass: float
    dropped: int


def _log_beta(a: float, b: float) -> float:
    return lgamma(a) + lgamma(b) - lgamma(a + b)


def _pmf(n: int, alpha: float, beta: float):
    """The beta-binomial pmf over 0 .. ``n`` as a function of k, for checked arguments.

    The log-gamma terms that do not depend on k are taken once.
    """
    log_n, log_beta = lgamma(n + 1), _log_beta(alpha, beta)

    def pmf(k: int) -> float:
        log_choose = log_n - lgamma(k + 1) - lgamma(n - k + 1)
        return exp(log_choose + _log_beta(k + alpha, n - k + beta) - log_beta)

    return pmf


def beta_binomial_pmf(k: int, n: int, alpha: float, beta: float) -> float:
    """pmf of the beta-binomial distribution, computed through log-gamma."""
    if alpha <= 0 or beta <= 0:
        raise ValidationError("alpha and beta must be positive")
    if k != int(k) or n != int(n) or not 0 <= k <= n:
        raise ValidationError("need integers 0 <= k <= n")
    return _pmf(int(n), alpha, beta)(int(k))


def _options(entry: DomainEntry) -> list[tuple[tuple[Constant, ...], ConstantSet, float | None]]:
    """``(order, domain, prob)`` per alternative of ``entry``.

    ``order`` is the constants as the spec lists them, which breaks ties
    between worlds of equal sizes; a beta-binomial entry's bins differ in
    size, so they need none. A bin's domain is the set of its guaranteed
    constants plus one run of synthetic names, and its weight the pmf at
    the bin, both made from what the entry checked when it was made.
    """
    if isinstance(entry, FixedDomain):
        return [(entry.constants, ConstantSet(entry.constants), 1.0)]
    if isinstance(entry, EnumeratedDomain):
        return [(cs, ConstantSet(cs), p) for cs, p in entry.options]
    g, step = len(entry.guaranteed), entry.step
    if g > step:
        raise ValidationError(f"{g} guaranteed constants do not fit a domain of size {step}")
    guaranteed = ConstantSet(entry.guaranteed)
    named, runs = guaranteed.named, guaranteed.runs
    pmf = _pmf(entry.bins, entry.alpha, entry.beta)
    # x{g+1} .. x{step * k}; the guaranteed constants' runs end at x{g} at most
    return [
        ((), ConstantSet(named, runs + ((g + 1, step * k),)) if step * k > g else guaranteed, pmf(k))
        for k in range(1, entry.bins + 1)
    ]


def enumerate_worlds(spec: DomainSpec, tmpl: TemplateModel) -> tuple[DomainWorld, ...]:
    """All domain worlds ``spec`` describes, ordered by ascending domain sizes.

    Worlds combine the per-logvar options independently; a world's
    probability is the product of its options' probabilities. Options from
    unweighted enumerations make the whole world unweighted, which is only
    allowed when no other logvar of the template carries a distribution.
    Entries for logvars the template lacks enter no world and are not read.
    """
    for lv in tmpl.logvars:
        if lv.name not in spec.entries:
            raise ValidationError(f"missing domain spec for logvar {lv.name!r}")
    ordered = sorted(tmpl.logvars)
    entries = [spec.entries[lv.name] for lv in ordered]
    weighted_kinds = any(
        isinstance(e, BetaBinomialDomain) or (isinstance(e, EnumeratedDomain) and e.weighted)
        for e in entries
    )
    unweighted_kinds = any(isinstance(e, EnumeratedDomain) and not e.weighted for e in entries)
    if weighted_kinds and unweighted_kinds:
        raise ValidationError("cannot mix weighted and unweighted domain distributions")

    worlds, keys = [], []
    for combo in itertools.product(*[_options(e) for e in entries]):
        orders, sets, probs = zip(*combo)
        keys.append((tuple([cs.size for cs in sets]), orders))
        worlds.append(DomainWorld(dict(zip(ordered, sets)), None if unweighted_kinds else prod(probs)))
    return tuple([worlds[i] for i in sorted(range(len(worlds)), key=keys.__getitem__)])


def filter_worlds(worlds: Sequence[T], f: WorldFilter) -> FilterResult[T]:
    """Drop worlds with probability <= threshold; order and weights untouched."""
    probs = []
    for w in worlds:
        if w.prob is None:
            raise ValidationError("cannot threshold unweighted worlds")
        probs.append(w.prob)
    kept = tuple(w for w in worlds if w.prob > f.threshold)
    return FilterResult(
        kept=kept,
        retained_mass=sum(w.prob for w in kept),
        total_mass=sum(probs),
        dropped=len(worlds) - len(kept),
    )
