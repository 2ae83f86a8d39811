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
    P(Sick(x1) | Treat(x1,t1)=true, Travel(x2)=false)
"""

from __future__ import annotations

import json
import math
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
    _arg_logvars,
)
from .program import Program, _read_atom, parse as parse_program

_COMMA = re.compile(r",(?![^()]*\))")  # a comma outside parentheses: no ')' before the next '('


def _expect(obj, kind: type, where: str):
    """``obj`` when it has the JSON type ``kind`` (``dict`` or ``list``); else a ParseError."""
    if not isinstance(obj, kind):
        shape = "an object" if kind is dict else "a list"
        raise ParseError(f"{where}: expected {shape}, got {type(obj).__name__}")
    return obj


def _number(obj, where: str) -> float:
    """A finite JSON number (not a bool) as a float; else a ParseError naming ``where``."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not math.isfinite(obj):
        raise ParseError(f"{where}: expected a number, got {obj!r}")
    return float(obj)


def _integer(obj, where: str) -> int:
    """A JSON integer (not a bool, not a fractional float); else a ParseError naming ``where``."""
    if isinstance(obj, bool) or not (isinstance(obj, int) or isinstance(obj, float) and obj.is_integer()):
        raise ParseError(f"{where}: expected an integer, got {obj!r}")
    return int(obj)


def _name(obj, where: str) -> str:
    """A JSON string; else a ParseError naming ``where``."""
    if not isinstance(obj, str):
        raise ParseError(f"{where}: expected a name, got {obj!r}")
    return obj


def _constants(obj, where: str) -> tuple[Constant, ...]:
    return tuple(Constant(c) for c in _expect(obj, list, where))


def _logvar(logvars: dict[str, Logvar], name, where: str) -> Logvar:
    if _name(name, f"{where}: logvar") not in logvars:
        raise ParseError(f"{where}: unknown logvar {name!r}")
    return logvars[name]


def _require(obj: dict, key: str, where: str):
    if key not in _expect(obj, dict, where):
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
    for rv in _expect(_require(doc, "randvars", "model file"), list, "randvars"):
        name = _name(_require(rv, "name", "randvar"), "randvar name")
        arity = _integer(_require(rv, "arity", f"randvar {name}"), f"randvar {name}: 'arity'")
        rng = BOOLEAN
        if "range" in rv:
            labels = _expect(rv["range"], list, f"randvar {name}: 'range'")
            rng = Range(tuple(_name(v, f"randvar {name}: range value") for v in labels))
        if name in randvars:
            raise ParseError(f"duplicate randvar {name!r}")
        randvars[name] = (arity, rng)
    logvars = {name: Logvar(name) for name in _expect(doc.get("logvars", []), list, "logvars")}
    rng_source = np.random.default_rng(0 if seed is None else seed)

    parfactors: list[Parfactor] = []
    names: list[str] = []
    for i, spec in enumerate(_expect(_require(doc, "parfactors", "model file"), list, "parfactors")):
        pname = _name(_expect(spec, dict, f"parfactor g{i}").get("name", f"g{i}"), f"parfactor g{i}: 'name'")
        where = f"parfactor {pname}"
        args = []
        for raw in _expect(_require(spec, "args", where), list, where):
            if not _expect(raw, list, where):
                raise ParseError(f"{where}: empty argument")
            rv_name, *param_names = raw
            if _name(rv_name, f"{where}: randvar") not in randvars:
                raise ParseError(f"{where}: unknown randvar {rv_name!r}")
            arity, rng = randvars[rv_name]
            if len(param_names) != arity:
                raise ParseError(f"{where}: {rv_name} has arity {arity}, got {len(param_names)} logvars")
            params = tuple(_logvar(logvars, ln, where) for ln in param_names)
            args.append(PRV(rv_name, params, rng))
        values = _require(spec, "values", where)
        if values == "random":
            values = rng_source.uniform(0.1, 2.0, math.prod(len(a.range) for a in args))
        elif isinstance(values, list):
            values = [_number(v, f"{where}: value") for v in values]
        else:
            raise ParseError(f"{where}: values must be a list or 'random'")
        table = PotentialTable(tuple(args), np.asarray(values, dtype=float))

        raw_c = _require(spec, "constraint", where)
        if raw_c == "empty":
            constraint = Constraint.empty(_arg_logvars(args))
        elif raw_c == "top":
            raise ParseError(
                f"{where}: a model file has no 'top' constraint; make it 'empty' "
                f"and bind it in the program with 'constraint {pname} <- top.'"
            )
        elif isinstance(raw_c, dict):
            c_names = _expect(_require(raw_c, "logvars", where), list, where)
            c_logvars = tuple(_logvar(logvars, ln, where) for ln in c_names)
            tuples = [_constants(t, where) for t in _expect(_require(raw_c, "tuples", where), list, where)]
            constraint = Constraint.extensional(c_logvars, tuples)
        else:
            raise ParseError(f"{where}: constraint must be 'empty' or explicit")
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
    for logvar, raw in _expect(doc, dict, "domain spec").items():
        where = f"domain {logvar}"
        if "constants" in _expect(raw, dict, where):
            entries[logvar] = FixedDomain(_constants(raw["constants"], where))
        elif "worlds" in raw:
            options = []
            for w in _expect(raw["worlds"], list, where):
                constants = _constants(_require(w, "constants", where), where)
                prob = w.get("prob")
                options.append((constants, None if prob is None else _number(prob, f"{where}: 'prob'")))
            entries[logvar] = EnumeratedDomain(tuple(options))
        elif "alpha" in raw:
            entries[logvar] = BetaBinomialDomain(
                alpha=_number(_require(raw, "alpha", where), f"{where}: 'alpha'"),
                beta=_number(_require(raw, "beta", where), f"{where}: 'beta'"),
                bins=_integer(_require(raw, "bins", where), f"{where}: 'bins'"),
                step=_integer(_require(raw, "step", where), f"{where}: 'step'"),
                guaranteed=_constants(raw.get("guaranteed", []), where),
            )
        else:
            raise ParseError(f"{where}: need 'constants', 'worlds', or beta-binomial parameters")
    return DomainSpec(entries)


def load_program(path) -> Program:
    return parse_program(Path(path).read_text())


def _parse_atom(text: str) -> GroundAtom:
    name, terms = _read_atom(text)
    return GroundAtom(name, tuple(map(Constant, terms)))


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
    targets = tuple(_parse_atom(t) for t in _COMMA.split(target_text))
    evidence = ()
    if len(parts) == 2:
        evidence = tuple(_assignment(chunk, "evidence") for chunk in _COMMA.split(parts[1]))
    return QuerySpec(targets, Evidence(evidence))


def parse_event(text: str):
    """Parse ``atom=value`` into its parts; returns (GroundAtom, value)."""
    return _assignment(text, "event")


def _assignment(text: str, kind: str) -> tuple[GroundAtom, str]:
    """``atom=value`` as its atom and stripped value; a ParseError without ``=`` or a value."""
    if "=" not in text:
        raise ParseError(f"{kind} must be atom=value: {text.strip()!r}")
    atom_text, value = text.rsplit("=", 1)
    value = value.strip()
    if not value:
        raise ParseError(f"{kind} {atom_text.strip()!r} has no value")
    return _parse_atom(atom_text), value
