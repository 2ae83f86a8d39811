"""Domain worlds: declarative specs for the universes a model may live in.

A domain spec gives each logvar either a fixed constant list, an explicit
enumeration of weighted alternatives, or a binned beta-binomial distribution
over sizes (bin k of n holds size ``step * k``, weighted by the pmf at k;
the k = 0 bin is dropped without renormalizing, a size-zero domain being
impossible). Synthetic constants are named x1, x2, ... after any guaranteed
constants, so runs are reproducible. A domain lists each constant once, so a
guaranteed constant may not take a synthetic name.

Threshold filtering keeps worlds whose probability exceeds t and never
renormalizes; the retained mass is reported instead so callers can see how
much of the distribution they kept.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import exp, lgamma
from typing import Generic, Sequence, TypeVar

from .errors import ValidationError
from .model import Constant, Logvar, TemplateModel


def _distinct(constants: Sequence[Constant], what: str) -> None:
    """A domain's size counts its constants, so none may be listed twice."""
    if len(set(constants)) != len(constants):
        raise ValidationError(f"{what} lists a constant twice")


@dataclass(frozen=True)
class DomainWorld:
    """One domain per logvar, optionally weighted."""

    domains: dict[Logvar, tuple[Constant, ...]]
    prob: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "domains", {lv: tuple(cs) for lv, cs in self.domains.items()}
        )
        for lv, cs in self.domains.items():
            if not cs:
                raise ValidationError(f"domain for logvar {lv.name} must not be empty")
        if self.prob is not None and not 0.0 <= self.prob <= 1.0:
            raise ValidationError("world probability must lie in [0, 1]")

    def sizes(self) -> dict[str, int]:
        return {lv.name: len(cs) for lv, cs in self.domains.items()}


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
        if self.bins < 1 or self.step < 1:
            raise ValidationError("bins and step must be positive integers")
        _distinct(self.guaranteed, "guaranteed constants")
        g, n = len(self.guaranteed), self.step * self.bins
        for c in self.guaranteed:
            if re.fullmatch(r"x[1-9][0-9]*", c) and g < int(c[1:]) <= n:  # synthetic: x{g+1} .. x{n}
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


def beta_binomial_pmf(k: int, n: int, alpha: float, beta: float) -> float:
    """pmf of the beta-binomial distribution, computed through log-gamma."""
    if alpha <= 0 or beta <= 0:
        raise ValidationError("alpha and beta must be positive")
    if k != int(k) or n != int(n) or not 0 <= k <= n:
        raise ValidationError("need integers 0 <= k <= n")
    k, n = int(k), int(n)
    log_choose = lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
    return exp(log_choose + _log_beta(k + alpha, n - k + beta) - _log_beta(alpha, beta))


def _options(entry: DomainEntry) -> list[tuple[tuple[Constant, ...], float | None]]:
    if isinstance(entry, FixedDomain):
        return [(entry.constants, 1.0)]
    if isinstance(entry, EnumeratedDomain):
        return list(entry.options)
    g = len(entry.guaranteed)
    # the largest bin's synthetic constants; each bin takes a prefix
    synthetic = tuple(Constant(f"x{i}") for i in range(g + 1, entry.step * entry.bins + 1))
    out = []
    for k in range(1, entry.bins + 1):
        size = entry.step * k
        if g > size:
            raise ValidationError(f"{g} guaranteed constants do not fit a domain of size {size}")
        out.append(
            (entry.guaranteed + synthetic[: size - g],
             beta_binomial_pmf(k, entry.bins, entry.alpha, entry.beta))
        )
    return out


def enumerate_worlds(spec: DomainSpec, tmpl: TemplateModel) -> tuple[DomainWorld, ...]:
    """All domain worlds ``spec`` describes, ordered by ascending domain sizes.

    Worlds combine the per-logvar options independently; a world's
    probability is the product of its options' probabilities. Options from
    unweighted enumerations make the whole world unweighted, which is only
    allowed when no other logvar carries a distribution.
    """
    logvars = tmpl.logvars
    for lv in logvars:
        if lv.name not in spec.entries:
            raise ValidationError(f"missing domain spec for logvar {lv.name!r}")
    weighted_kinds = any(
        isinstance(e, BetaBinomialDomain) or (isinstance(e, EnumeratedDomain) and e.weighted)
        for e in spec.entries.values()
    )
    unweighted_kinds = any(
        isinstance(e, EnumeratedDomain) and not e.weighted for e in spec.entries.values()
    )
    if weighted_kinds and unweighted_kinds:
        raise ValidationError("cannot mix weighted and unweighted domain distributions")

    ordered = sorted(logvars)
    option_lists = [_options(spec.entries[lv.name]) for lv in ordered]
    worlds = []
    for combo in itertools.product(*option_lists):
        domains = {lv: constants for lv, (constants, _) in zip(ordered, combo)}
        if unweighted_kinds:
            prob = None
        else:
            prob = 1.0
            for _, p in combo:
                prob *= p
        worlds.append(DomainWorld(domains, prob))
    worlds.sort(
        key=lambda w: (
            tuple(len(w.domains[lv]) for lv in ordered),
            tuple(w.domains[lv] for lv in ordered),
        )
    )
    return tuple(worlds)


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
