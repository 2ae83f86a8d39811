"""File formats: model files, domain spec files, and the query string syntax.

Model file (JSON)::

    {
      "randvars": [
        {"name": "Epid", "arity": 0},                     // boolean by default
        {"name": "Sick", "arity": 1, "range": ["false", "true"]}
      ],
      "logvars": ["X", "T"],
      "parfactors": [
        {
          "name": "g1",                                    // optional, defaults g<i>
          "args": [["Epid"], ["Sick", "X"]],               // randvar then its logvars
          "values": [4, 2, 1, 3],                          // row-major, LAST arg fastest
          "constraint": "empty"                            // or explicit:
                                                           // {"logvars": ["X"],
                                                           //  "tuples": [["alice"], ["bob"]]}
        }
      ]
    }

``"values": "random"`` draws the table from a seeded generator (uniform on
[0.1, 2)); pass the seed to :func:`load_model`. A file whose constraints are
all "empty" loads as a template model; one whose constraints all list
tuples loads as a parameterised model. A model file has no "top"
constraint: the full Cartesian product of the domains is a program binding,
``constraint g <- top.``, resolved when a domain world is known.

Domain spec file (JSON), one entry per logvar; the entry shape picks the kind::

    {
      "X": {"alpha": 6, "beta": 15, "bins": 20, "step": 100, "guaranteed": []},
      "T": {"constants": ["t1", "t2", "t3"]},
      "Y": {"worlds": [{"constants": ["a"], "prob": 0.4},
                       {"constants": ["a", "b"], "prob": 0.6}]}
    }

Query strings::

    P(Sick(x1))
    P(Epid | Sick(x1)=true, Travel(x2)=false)
    P(Sick(x1), Sick(x2) | Epid=true)
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .domains import BetaBinomialDomain, DomainSpec, EnumeratedDomain, FixedDomain
from .engine import Evidence, QuerySpec
from .errors import ParseError, ValidationError
from .model import (
    BOOLEAN,
    Constant,
    Constraint,
    GroundAtom,
    Logvar,
    Parfactor,
    ParameterisedModel,
    PotentialTable,
    PRV,
    Range,
    TemplateModel,
)
from .program import Program, parse as parse_program

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_ATOM_RE = re.compile(rf"^(?P<name>{_NAME})\s*(?:\((?P<args>[^()]*)\))?$")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing {key!r}")
    return obj[key]


def load_model(path, seed: int | None = None):
    """Load a model file; returns a TemplateModel or a ParameterisedModel."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return parse_model(doc, seed=seed)


def parse_model(doc: dict, seed: int | None = None):
    randvars: dict[str, tuple[int, Range]] = {}
    for rv in _require(doc, "randvars", "model file"):
        name = _require(rv, "name", "randvar")
        arity = int(_require(rv, "arity", f"randvar {name}"))
        rng = Range(tuple(rv["range"])) if "range" in rv else BOOLEAN
        if name in randvars:
            raise ParseError(f"duplicate randvar {name!r}")
        randvars[name] = (arity, rng)
    logvars = {name: Logvar(name) for name in doc.get("logvars", [])}
    rng_source = np.random.default_rng(0 if seed is None else seed)

    parfactors: list[Parfactor] = []
    names: list[str] = []
    for i, spec in enumerate(_require(doc, "parfactors", "model file")):
        pname = spec.get("name", f"g{i}")
        args = []
        for raw in _require(spec, "args", f"parfactor {pname}"):
            if not raw:
                raise ParseError(f"parfactor {pname}: empty argument")
            rv_name, *param_names = raw
            if rv_name not in randvars:
                raise ParseError(f"parfactor {pname}: unknown randvar {rv_name!r}")
            arity, rng = randvars[rv_name]
            if len(param_names) != arity:
                raise ParseError(
                    f"parfactor {pname}: {rv_name} has arity {arity}, got {len(param_names)} logvars"
                )
            params = []
            for ln in param_names:
                if ln not in logvars:
                    raise ParseError(f"parfactor {pname}: unknown logvar {ln!r}")
                params.append(logvars[ln])
            args.append(PRV(rv_name, tuple(params), rng))
        values = _require(spec, "values", f"parfactor {pname}")
        if values == "random":
            size = 1
            for a in args:
                size *= len(a.range)
            values = rng_source.uniform(0.1, 2.0, size)
        elif not isinstance(values, list):
            raise ParseError(f"parfactor {pname}: values must be a list or 'random'")
        table = PotentialTable(tuple(args), np.asarray(values, dtype=float))

        raw_c = _require(spec, "constraint", f"parfactor {pname}")
        arg_logvars: dict[Logvar, None] = {}
        for a in args:
            for lv in a.params:
                arg_logvars.setdefault(lv)
        if raw_c == "empty":
            constraint = Constraint.empty(tuple(arg_logvars))
        elif raw_c == "top":
            raise ParseError(
                f"parfactor {pname}: a model file has no 'top' constraint; make it 'empty' "
                f"and bind it in the program with 'constraint {pname} <- top.'"
            )
        elif isinstance(raw_c, dict):
            c_logvars = tuple(logvars[n] for n in _require(raw_c, "logvars", f"parfactor {pname}"))
            tuples = [
                tuple(Constant(c) for c in t) for t in _require(raw_c, "tuples", f"parfactor {pname}")
            ]
            constraint = Constraint.extensional(c_logvars, tuples)
        else:
            raise ParseError(f"parfactor {pname}: constraint must be 'empty' or explicit")
        parfactors.append(Parfactor(table, constraint))
        names.append(pname)

    empty = [not p.constraint.size for p in parfactors]
    if empty and all(empty):
        return TemplateModel(tuple(parfactors), tuple(names))
    if any(empty):
        raise ValidationError("model file mixes empty and filled constraints")
    return ParameterisedModel(tuple(parfactors))


def load_domain_spec(path) -> DomainSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return parse_domain_spec(doc)


def parse_domain_spec(doc: dict) -> DomainSpec:
    entries = {}
    for logvar, raw in doc.items():
        if "constants" in raw:
            entries[logvar] = FixedDomain(tuple(Constant(c) for c in raw["constants"]))
        elif "worlds" in raw:
            options = []
            for w in raw["worlds"]:
                constants = tuple(Constant(c) for c in _require(w, "constants", f"domain {logvar}"))
                options.append((constants, w.get("prob")))
            entries[logvar] = EnumeratedDomain(tuple(options))
        elif "alpha" in raw:
            entries[logvar] = BetaBinomialDomain(
                alpha=float(_require(raw, "alpha", f"domain {logvar}")),
                beta=float(_require(raw, "beta", f"domain {logvar}")),
                bins=int(_require(raw, "bins", f"domain {logvar}")),
                step=int(_require(raw, "step", f"domain {logvar}")),
                guaranteed=tuple(Constant(c) for c in raw.get("guaranteed", [])),
            )
        else:
            raise ParseError(
                f"domain {logvar}: need 'constants', 'worlds', or beta-binomial parameters"
            )
    return DomainSpec(entries)


def load_program(path) -> Program:
    return parse_program(Path(path).read_text())


def _parse_atom(text: str) -> GroundAtom:
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise ParseError(f"malformed atom {text.strip()!r}")
    raw_args = m.group("args")
    if raw_args is None or not raw_args.strip():
        return GroundAtom(m.group("name"), ())
    args = tuple(Constant(a.strip()) for a in raw_args.split(","))
    return GroundAtom(m.group("name"), args)


def parse_query(text: str) -> QuerySpec:
    """Parse ``P(target[, target...] | atom=value[, ...])``."""
    stripped = text.strip()
    m = re.match(r"^P\s*\((.*)\)$", stripped, re.S)
    if not m:
        raise ParseError(f"query must look like P(...): {stripped!r}")
    body = m.group(1)
    parts = body.split("|")
    if len(parts) > 2:
        raise ParseError("query has more than one '|'")
    target_text = parts[0].strip()
    if not target_text:
        raise ParseError("query has no target atoms")
    targets = tuple(_parse_atom(t) for t in target_text.split(","))
    evidence = ()
    if len(parts) == 2:
        items = []
        for chunk in parts[1].split(","):
            if "=" not in chunk:
                raise ParseError(f"evidence must be atom=value: {chunk.strip()!r}")
            atom_text, value = chunk.rsplit("=", 1)
            items.append((_parse_atom(atom_text), value.strip()))
        evidence = tuple(items)
    return QuerySpec(targets, Evidence(evidence))


def parse_event(text: str):
    """Parse ``atom=value`` into its parts; returns (GroundAtom, value)."""
    if "=" not in text:
        raise ParseError(f"event must be atom=value: {text.strip()!r}")
    atom_text, value = text.rsplit("=", 1)
    return _parse_atom(atom_text), value.strip()
