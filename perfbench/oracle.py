"""Answers computed apart from the program, and the checks that use them.

Nothing here calls into ``liftworlds`` to compute an expected value: model
weights come from a beta-binomial pmf written out below, constraint contents
from the generation parameters, and query answers from a closed form.

Closed form. Given Epid = e, the persons of the epidemic template are
independent: person x with k treatments contributes

    sum_s A(e, s) * B(e, s) ** k,   A(e, s) = sum_tr g1(e, s, tr),
                                    B(e, s) = sum_tv g2(e, s, tv),

with A sliced at the observed value when Travel(x) is evidence. The query
person keeps its Sick axis instead of summing it. Everything is done in log
space, since B ** k overflows doubles for a few hundred persons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, isclose, lgamma

import numpy as np

from inputs import BETA_BINOMIAL, SECOND_TREATMENT, Inputs, Tables, persons

TOLERANCE = 1e-9


def beta_binomial_pmf(k: int, n: int, alpha: float, beta: float) -> float:
    log_choose = lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
    log_b = lgamma(k + alpha) + lgamma(n - k + beta) - lgamma(n + alpha + beta)
    log_b0 = lgamma(alpha) + lgamma(beta) - lgamma(alpha + beta)
    return exp(log_choose + log_b - log_b0)


@dataclass(frozen=True)
class ExpectedModel:
    """What one expanded model must hold, derived from the generation parameters."""

    size: int
    weight: float
    treatments: dict[str, tuple[str, ...]]  # person -> its treatments, sorted

    @property
    def g1(self) -> set[tuple[str, ...]]:
        return {(x,) for x in self.treatments}

    @property
    def g2(self) -> set[tuple[str, ...]]:
        return {(x, t) for x, ts in self.treatments.items() for t in ts}


def expected_models(inp: Inputs) -> list[ExpectedModel]:
    """Models in expansion order: ascending size, then descending pair weight."""
    if inp.size_probs:
        size_probs = inp.size_probs
    else:
        bins = BETA_BINOMIAL["bins"]
        size_probs = tuple(
            beta_binomial_pmf(k, bins, BETA_BINOMIAL["alpha"], BETA_BINOMIAL["beta"])
            for k in range(1, bins + 1)
        )
    pairs = sorted(inp.pairs, key=lambda pw: -pw[1])
    out = []
    for n, p_size in zip(inp.sizes, size_probs):
        for pair, p_pair in pairs:
            treatments = {}
            for x in persons(n):
                extra = (SECOND_TREATMENT,) if x in inp.second else ()
                treatments[x] = tuple(sorted(set(pair) | set(extra)))
            out.append(ExpectedModel(n, p_size * p_pair, treatments))
    return out


def missing_mass(inp: Inputs) -> float:
    """Probability of the worlds the spec leaves out: the size-zero bin, if any."""
    if inp.size_probs:
        return 0.0
    return beta_binomial_pmf(0, BETA_BINOMIAL["bins"], BETA_BINOMIAL["alpha"], BETA_BINOMIAL["beta"])


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def sick_marginal(tables: Tables, counts: dict[str, int], target: str,
                  travel: dict[str, int]) -> np.ndarray:
    """P(Sick(target) = false, true | Travel evidence) from per-person treatment counts.

    ``counts`` maps every person to its number of treatments; ``travel`` maps
    observed persons to the observed Travel index (0 false, 1 true).
    """
    log_a = np.log(tables.g1.sum(axis=2))  # [e, s]
    log_b = np.log(tables.g2.sum(axis=2))  # [e, s]

    def person(x: str) -> np.ndarray:  # [e, s]
        a = np.log(tables.g1[:, :, travel[x]]) if x in travel else log_a
        return a + counts[x] * log_b

    total = np.log(tables.g0)[:, None] + person(target)  # [e, s_target]
    # persons outside the query share their term with every person like them
    groups = Counter((counts[x], travel.get(x)) for x in counts if x != target)
    for (k, observed), n in sorted(groups.items(), key=str):
        a = log_a if observed is None else np.log(tables.g1[:, :, observed])
        total = total + n * _logsumexp(a + k * log_b, axis=1)[:, None]
    log_marg = _logsumexp(total, axis=0)
    return np.exp(log_marg - _logsumexp(log_marg, axis=0))


def model_answer(tables: Tables, em: ExpectedModel, travel: dict[str, int]) -> np.ndarray:
    counts = {x: len(ts) for x, ts in em.treatments.items()}
    return sick_marginal(tables, counts, "x1", travel)


def close(a: float, b: float) -> bool:
    return isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def names(tuples) -> set[tuple[str, ...]]:
    return {tuple(c.name for c in t) for t in tuples}


def model_problems(wm, em: ExpectedModel) -> list[str]:
    """How an expanded model differs from what the spec makes it; empty if it agrees."""
    problems = []
    if wm.degenerate or wm.model is None:
        return ["degenerate world"]
    if wm.provenance.domain_sizes.get("X") != em.size:
        problems.append(f"size {wm.provenance.domain_sizes} != {em.size}")
    if not close(wm.prob, em.weight):
        problems.append(f"weight {wm.prob!r} != {em.weight!r}")
    g0, g1, g2 = (p.constraint for p in wm.model.parfactors)
    if names(g0.tuples) != {()}:
        problems.append("g0 is not the single empty tuple")
    if names(g1.tuples) != em.g1:
        problems.append(f"g1 has {g1.size} tuples, expected persons x1..x{em.size}")
    if names(g2.tuples) != em.g2:
        problems.append(f"g2 has {g2.size} tuples, expected {len(em.g2)}")
    return problems


def dominated(points: list[tuple[float, float]], i: int) -> bool:
    m, p = points[i]
    return any((m2 >= m and p2 >= p) and (m2 > m or p2 > p) for m2, p2 in points)


def brute_force_skyline(points: list[tuple[float, float]]) -> set[int]:
    """Indices no other point dominates, by the quadratic pairwise check."""
    return {i for i in range(len(points)) if not dominated(points, i)}


def is_top_k(picked: list[int], keys: list[float], k: int) -> bool:
    """Whether ``picked`` is a descending top-k of ``keys``, within the tolerance.

    Keys closer than the tolerance count as equal, so any order among them
    is accepted.
    """
    if len(picked) != min(k, len(keys)) or len(set(picked)) != len(picked):
        return False

    def not_below(i: int, j: int) -> bool:
        return keys[i] >= keys[j] or close(keys[i], keys[j])

    rest = [j for j in range(len(keys)) if j not in picked]
    return all(not_below(a, b) for a, b in zip(picked, picked[1:])) and all(
        not_below(picked[-1], j) for j in rest
    )

