"""The three workloads: how each sets up, what one pass runs, how a pass is checked.

The library is reached through its module attributes (``universe.expand``,
``queries.query_all``, ...) at call time, so the tracer's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from liftworlds import io, queries, universe
from liftworlds.errors import LiftworldsError

import inputs
import oracle


@dataclass
class Tally:
    """Operations attempted and failed, and what went wrong with the ones that ran."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, what: str, problems: list[str] | None = None, failed: bool = False) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
            self.problems.append(f"{what}: failed")
        elif problems:
            self.problems.extend(f"{what}: {p}" for p in problems)


@dataclass
class State:
    """What a set-up hands to the passes."""

    inp: inputs.Inputs
    universe: universe.UniverseModel
    models: tuple
    expected: list[oracle.ExpectedModel]


def setup(make, seed: int, directory: Path) -> State:
    """Generate the inputs, load them through ``io`` and expand them."""
    inp = make(seed, directory)
    u = universe.UniverseModel(
        io.load_model(inp.model_path),
        io.load_program(inp.program_path),
        io.load_domain_spec(inp.domains_path),
    )
    return State(inp, u, universe.expand(u), oracle.expected_models(inp))


def check_expand(state: State, models, tally: Tally) -> None:
    """One operation per expected model, one for the model count and retained mass."""
    for i, em in enumerate(state.expected):
        if models is None or i >= len(models):
            tally.op(f"expand model {i}", failed=True)
        else:
            tally.op(f"expand model {i}", oracle.model_problems(models[i], em))
    if models is None:
        tally.op("expand mass", failed=True)
        return
    problems = []
    if len(models) != len(state.expected):
        problems.append(f"{len(models)} models, expected {len(state.expected)}")
    mass = sum(wm.prob for wm in models)
    if not oracle.close(mass, 1.0 - oracle.missing_mass(state.inp)):
        problems.append(f"retained mass {mass!r} != 1 - pmf(0)")
    tally.op("expand mass", problems)


def check_answers(state: State, answers, travel: dict[str, int], tally: Tally) -> list[np.ndarray]:
    """One operation per model: its answer against the closed form. Returns the closed forms."""
    by_world = {} if answers is None else {e.provenance.world_id: e for e in answers.entries}
    closed = []
    for wm, em in zip(state.models, state.expected):
        cf = oracle.model_answer(state.inp.tables, em, travel)
        closed.append(cf)
        entry = by_world.get(wm.provenance.world_id)
        if entry is None:
            tally.op(f"answer {wm.provenance.world_id}", failed=True)
            continue
        problems = []
        got = entry.answer.probs
        if got.shape != cf.shape or not all(oracle.close(a, b) for a, b in zip(got, cf)):
            problems.append(f"P(Sick(x1)) {list(got)} != closed form {list(cf)}")
        if not oracle.close(entry.model_prob, em.weight):
            problems.append(f"model prob {entry.model_prob!r} != {em.weight!r}")
        tally.op(f"answer {wm.provenance.world_id}", problems)
    return closed


class EpidemicExpand:
    name = "epidemic-expand"
    make = staticmethod(inputs.make_epidemic)

    def run(self, state: State):
        return universe.expand(state.universe)

    def check(self, state: State, result, tally: Tally) -> None:
        check_expand(state, result, tally)


class RaggedQuery:
    name = "ragged-query"
    make = staticmethod(inputs.make_ragged)
    query = inputs.RAGGED_QUERY
    travel = {"x2": 1}

    def run(self, state: State):
        return queries.query_all(state.models, io.parse_query(self.query))

    def check(self, state: State, result, tally: Tally) -> None:
        check_answers(state, result, self.travel, tally)


class EpidemicQuery:
    name = "epidemic-query"
    make = staticmethod(inputs.make_epidemic)
    query = inputs.EPIDEMIC_QUERY
    event = "Sick(x1)=true"
    k = 3

    def run(self, state: State):
        answers = queries.query_all(state.models, io.parse_query(self.query))
        probe = queries.EventProbe(*io.parse_event(self.event))
        return answers, {
            "top_k_model_prob": queries.top_k_model_prob(answers, self.k),
            "top_k_query_prob": queries.top_k_query_prob(answers, probe, self.k),
            "skyline": queries.skyline(answers, probe),
            "trend_report": queries.trend_report(answers, probe),
        }

    def check(self, state: State, result, tally: Tally) -> None:
        answers, picks = result if result is not None else (None, {})
        closed = check_answers(state, answers, {}, tally)
        selections = ("top_k_model_prob", "top_k_query_prob", "skyline", "trend_report")
        if answers is None or len(answers.entries) != len(state.expected):
            for s in selections:
                tally.op(s, failed=True)
            return
        entries = list(answers.entries)
        index = {id(e): i for i, e in enumerate(entries)}
        weights = [e.model_prob for e in entries]
        probs = [e.answer.probs[1] for e in entries]  # Sick(x1) = true
        true_weights = [em.weight for em in state.expected]
        true_probs = [float(cf[1]) for cf in closed]

        # exact selections over the answers' own values, then the same picks
        # judged against the independent values within the tolerance
        picked = [index[id(e)] for e in picks["top_k_model_prob"].entries]
        brute = sorted(range(len(entries)), key=lambda i: (-weights[i], i))[: self.k]
        tally.op("top_k_model_prob", [] if picked == brute and oracle.is_top_k(picked, true_weights, self.k)
                 else [f"picked {picked}, by model weight {brute}"])

        picked = [index[id(e)] for e in picks["top_k_query_prob"].entries]
        brute = sorted(range(len(entries)), key=lambda i: (-probs[i], -weights[i], i))[: self.k]
        tally.op("top_k_query_prob", [] if picked == brute and oracle.is_top_k(picked, true_probs, self.k)
                 else [f"picked {picked}, by event probability {brute}"])

        picked = [index[id(e)] for e in picks["skyline"]]
        frontier = oracle.brute_force_skyline(list(zip(weights, probs)))
        in_order = all(weights[a] >= weights[b] for a, b in zip(picked, picked[1:]))
        tally.op("skyline", [] if set(picked) == frontier and len(picked) == len(frontier) and in_order
                 else [f"skyline {sorted(picked)} != brute force {sorted(frontier)}"])

        # the direction is judged on the answers' own series: see the README
        # on why it is not compared with the closed form's direction
        trend = picks["trend_report"]
        order = sorted(range(len(entries)), key=lambda i: (entries[i].provenance.domain_size, i))
        own = [probs[i] for i in order]
        truth = [true_probs[i] for i in order]
        steps = [b - a for a, b in zip(own, own[1:])]
        direction = ("constant" if all(d == 0 for d in steps) else
                     "increasing" if all(d >= 0 for d in steps) else
                     "decreasing" if all(d <= 0 for d in steps) else "non-monotone")
        true_delta = max(abs(b - a) for a, b in zip(truth, truth[1:]))
        problems = []
        if trend.direction != direction or trend.entries != len(entries):
            problems.append(f"trend {trend.direction} over {trend.entries}, own series {direction}")
        if not oracle.close(trend.max_adjacent_delta, true_delta):
            problems.append(f"max delta {trend.max_adjacent_delta!r} != closed form {true_delta!r}")
        tally.op("trend_report", problems)


WORKLOADS = {w.name: w for w in (EpidemicQuery(), EpidemicExpand(), RaggedQuery())}


def run_safely(workload, state: State):
    """One pass; a library error makes the pass's operations count as failed."""
    try:
        return workload.run(state)
    except LiftworldsError:
        return None
