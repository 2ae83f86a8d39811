"""Seeded benchmark inputs: the model, program and domain files the program loads.

Every input is drawn from one ``numpy`` generator seeded by ``--seed``, so the
same seed writes the same bytes. The structure of each triple is fixed here,
not read from the repository's ``data/`` directory, so the benchmark keeps
measuring the same work whatever happens to the bundled example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The bundled epidemic triple: three parfactors over Epid, Sick(X), Travel(X)
# and Treat(X,T); each person gets one weighted pair of treatments.
PAIRS = ((("t1", "t2"), 0.7), (("t2", "t3"), 0.2), (("t1", "t3"), 0.1))
TREATMENTS = ("t1", "t2", "t3")
BETA_BINOMIAL = {"alpha": 6, "beta": 15, "bins": 20, "step": 100}

EPIDEMIC_RULES = """\
element_of_C2(X,Y1) :- linked(X,Y1,Y2).
element_of_C2(X,Y2) :- linked(X,Y1,Y2).
linked(X,Y1,Y2) :- instance_of_X(X) & pair(Y1,Y2).
populate instance_of_X/1 from X.
constraint g0 <- top.
constraint g1 <- instance_of_X(X).
constraint g2 <- element_of_C2(X,Y).
"""

# Every person is treated with t1; the persons named by second/1 also get t2,
# so the Treat group is ragged and fails count normalization.
RAGGED_RULES = """\
treated(X,t1) :- instance_of_X(X).
treated(X,t2) :- instance_of_X(X) & second(X).
populate instance_of_X/1 from X.
constraint g0 <- top.
constraint g1 <- instance_of_X(X).
constraint g2 <- treated(X,T).
"""
RAGGED_SIZES = (50, 100, 150)
RAGGED_TREATMENTS = ("t1", "t2")
RAGGED_PAIRS = ((("t1",), 1.0),)
SECOND_TREATMENT = "t2"
# Ragged tables stay close to 1, so the posterior over Epid is not saturated at
# N = 150 and every person's factor reaches the query marginal well above the
# checks' tolerance. The op counts do not depend on table values.
RAGGED_TABLE_RANGE = (0.99, 1.01)

EPIDEMIC_QUERY = "P(Sick(x1))"
RAGGED_QUERY = "P(Sick(x1) | Travel(x2)=true)"


@dataclass(frozen=True)
class Tables:
    """Potential tables of g0(Epid), g1(Epid,Sick,Travel), g2(Epid,Sick,Treat)."""

    g0: np.ndarray  # shape (2,)
    g1: np.ndarray  # shape (2, 2, 2), last argument fastest
    g2: np.ndarray  # shape (2, 2, 2)


@dataclass(frozen=True)
class Inputs:
    """The files of one triple plus what was drawn to make them."""

    directory: Path
    tables: Tables
    sizes: tuple[int, ...]  # the person-domain sizes, ascending
    size_probs: tuple[float, ...]  # the weight of each size, as written
    pairs: tuple[tuple[tuple[str, ...], float], ...]  # treatments every person gets, weighted
    second: frozenset[str]  # persons who also get SECOND_TREATMENT (ragged only)

    @property
    def model_path(self) -> Path:
        return self.directory / "model.json"

    @property
    def program_path(self) -> Path:
        return self.directory / "constraints.program"

    @property
    def domains_path(self) -> Path:
        return self.directory / "domains.json"


def persons(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def draw_tables(rng: np.random.Generator, low: float = 0.1, high: float = 2.0) -> Tables:
    """Uniform on [low, high); the default is the range the library's own random tables use."""
    return Tables(
        rng.uniform(low, high, 2),
        rng.uniform(low, high, 8).reshape(2, 2, 2),
        rng.uniform(low, high, 8).reshape(2, 2, 2),
    )


def model_doc(tables: Tables) -> dict:
    def values(a: np.ndarray) -> list[float]:
        return [float(v) for v in a.ravel()]

    return {
        "randvars": [
            {"name": "Epid", "arity": 0},
            {"name": "Sick", "arity": 1},
            {"name": "Travel", "arity": 1},
            {"name": "Treat", "arity": 2},
        ],
        "logvars": ["X", "T"],
        "parfactors": [
            {"name": "g0", "args": [["Epid"]], "values": values(tables.g0),
             "constraint": "empty"},
            {"name": "g1", "args": [["Epid"], ["Sick", "X"], ["Travel", "X"]],
             "values": values(tables.g1), "constraint": "empty"},
            {"name": "g2", "args": [["Epid"], ["Sick", "X"], ["Treat", "X", "T"]],
             "values": values(tables.g2), "constraint": "empty"},
        ],
    }


def epidemic_program() -> str:
    facts = "".join(f"{p!r} pair({a},{b}).\n" for (a, b), p in PAIRS)
    return EPIDEMIC_RULES + facts


def ragged_program(second) -> str:
    facts = "".join(f"second({x}).\n" for x in sorted(second, key=lambda s: int(s[1:])))
    return RAGGED_RULES + facts


def enumerated_domains(sizes, probs, treatments) -> dict:
    """An enumerated, weighted person domain x1..xN per size, fixed treatments."""
    return {
        "X": {"worlds": [{"constants": persons(n), "prob": p} for n, p in zip(sizes, probs)]},
        "T": {"constants": list(treatments)},
    }


def write_triple(directory: Path, tables: Tables, program: str, domains: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "model.json").write_text(json.dumps(model_doc(tables), indent=1))
    (directory / "constraints.program").write_text(program)
    (directory / "domains.json").write_text(json.dumps(domains, indent=1))


def make_epidemic(seed: int, directory: Path) -> Inputs:
    """The bundled epidemic triple, unfiltered, with seed-drawn tables."""
    tables = draw_tables(np.random.default_rng(seed))
    domains = {"X": dict(BETA_BINOMIAL, guaranteed=[]), "T": {"constants": list(TREATMENTS)}}
    write_triple(directory, tables, epidemic_program(), domains)
    sizes = tuple(BETA_BINOMIAL["step"] * k for k in range(1, BETA_BINOMIAL["bins"] + 1))
    return Inputs(directory, tables, sizes, (), PAIRS, frozenset())


def make_ragged(seed: int, directory: Path) -> Inputs:
    """The epidemic template over persons treated with t1, half of them also t2.

    The half is drawn per block of 50 persons, so every world holds exactly
    N/2 doubly treated persons. The query person x1 always has one treatment
    and the observed person x2 always two, so the work of a pass and its op
    counts do not depend on the seed; the other persons, the tables and the
    size weights do.
    """
    rng = np.random.default_rng(seed)
    tables = draw_tables(rng, *RAGGED_TABLE_RANGE)
    raw = rng.uniform(0.5, 1.5, len(RAGGED_SIZES))
    probs = tuple(float(p) for p in raw / raw.sum())
    second = {"x2"}
    for lo, hi in zip((0,) + RAGGED_SIZES, RAGGED_SIZES):
        block = [x for x in persons(hi)[lo:] if x not in ("x1", "x2")]
        want = (hi - lo) // 2 - len(second.intersection(persons(hi)[lo:]))
        second.update(str(x) for x in rng.choice(block, want, replace=False))
    domains = enumerated_domains(RAGGED_SIZES, probs, RAGGED_TREATMENTS)
    write_triple(directory, tables, ragged_program(second), domains)
    return Inputs(directory, tables, RAGGED_SIZES, probs, RAGGED_PAIRS, frozenset(second))
