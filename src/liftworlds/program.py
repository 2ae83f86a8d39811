"""A mini probabilistic-Datalog front end that generates constraint worlds.

Given a domain world, a program produces one constraint per template
parfactor, possibly once per weighted choice of probabilistic facts. The
language is non-recursive positive Datalog plus three statement kinds that
wire it to a template model::

    % comment until end of line
    pred(c1,...,cn).                      fact (constants are lowercase)
    0.7 pred(c1,...,cn).                  probabilistic fact
    head(V1,V2) :- body1(V1) & body2(V1,V2).   rule (variables uppercase)
    constraint g2 <- pred(V1,...,Vk).     binding: answers of the query atom
                                          become parfactor g2's tuples,
                                          positions matching its logvars
    constraint g0 <- top.                 binding to the full Cartesian product
    populate pred/1 from X.               one pred(c) fact per constant of X

All probabilistic facts sharing a predicate form one mutually exclusive,
exhaustive choice group whose probabilities must sum to 1; distinct groups
are independent, so a program with groups of sizes ``m1, m2, ...`` yields
``m1 * m2 * ...`` constraint worlds, each weighted by the product of its
chosen facts' probabilities. Rules are evaluated bottom-up to fixpoint,
which terminates because recursion is rejected up front.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError
from .model import Constant, Constraint, TemplateModel, _product

_IDENT = r"[a-z][A-Za-z0-9_]*"
_VAR = r"[A-Z_][A-Za-z0-9_]*"
_FLOAT = r"\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
_ATOM_RE = re.compile(rf"^(?P<pred>{_IDENT})\s*(?:\((?P<args>[^()]*)\))?$")
_BINDING_RE = re.compile(r"^constraint\s+(?P<id>\S+)\s*<-\s*(?P<target>.+)$", re.S)
_POPULATE_RE = re.compile(rf"^populate\s+(?P<pred>{_IDENT})\s*/\s*(?P<arity>\d+)\s+from\s+(?P<logvar>\S+)$")
_PROBFACT_RE = re.compile(rf"^(?P<prob>{_FLOAT})\s+(?P<atom>.+)$", re.S)


def _is_variable(term: str) -> bool:
    return bool(term) and (term[0].isupper() or term[0] == "_")


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms; uppercase terms are variables."""

    predicate: str
    terms: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({','.join(self.terms)})"

    def is_ground(self) -> bool:
        return not any(_is_variable(t) for t in self.terms)

    def variables(self) -> set[str]:
        return {t for t in self.terms if _is_variable(t)}


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...]

    def __str__(self) -> str:
        return f"{self.head} :- {' & '.join(str(a) for a in self.body)}."


@dataclass(frozen=True)
class ChoiceGroup:
    """Mutually exclusive weighted facts over one predicate."""

    predicate: str
    facts: tuple[Atom, ...]
    probs: tuple[float, ...]


@dataclass(frozen=True)
class Binding:
    """Ties one template parfactor to the query atom that fills its constraint."""

    parfactor: str
    atom: Atom | None  # None means top (Cartesian product of the domains)


@dataclass(frozen=True)
class Program:
    facts: tuple[Atom, ...]
    choice_groups: tuple[ChoiceGroup, ...]
    rules: tuple[Rule, ...]
    bindings: tuple[Binding, ...]
    populate: tuple[tuple[str, str], ...]  # (logvar name, predicate)

    def binding_for(self, parfactor: str) -> Binding | None:
        for b in self.bindings:
            if b.parfactor == parfactor:
                return b
        return None


@dataclass(frozen=True)
class ConstraintWorld:
    """One generated constraint per template parfactor, optionally weighted.

    ``choice`` records which fact was picked from each choice group, in
    declaration order; ``degenerate`` flags worlds where some binding query
    had no answers and the constraint came out empty.
    """

    constraints: tuple[Constraint, ...]
    prob: float | None
    choice: tuple[int, ...] = ()
    degenerate: bool = False


# ---------------------------------------------------------------------------
# parsing


def _statements(text: str):
    """Yield (statement text, line, column); '.' ends a statement unless inside a float."""
    # blank out comments, preserving offsets
    clean = re.sub(r"%[^\n]*", lambda m: " " * len(m.group()), text)
    start = 0
    for m in re.finditer(r"\.(?=\s|$)", clean):
        stmt = clean[start : m.start()]
        if stmt.strip():
            offset = start + (len(stmt) - len(stmt.lstrip()))
            line = clean.count("\n", 0, offset) + 1
            column = offset - (clean.rfind("\n", 0, offset) + 1) + 1
            yield stmt.strip(), line, column
        start = m.end()
    tail = clean[start:]
    if tail.strip():
        line = clean.count("\n", 0, start) + 1
        raise ParseError("statement is missing its terminating '.'", line)


def _parse_atom(text: str, line: int) -> Atom:
    m = _ATOM_RE.match(" ".join(text.split()))
    if not m:
        raise ParseError(f"malformed atom {text.strip()!r}", line)
    args = m.group("args")
    if args is None:
        return Atom(m.group("pred"))
    terms = tuple(t.strip() for t in args.split(",")) if args.strip() else ()
    for t in terms:
        if not re.fullmatch(rf"{_IDENT}|{_VAR}|\d+", t):
            raise ParseError(f"malformed term {t!r}", line)
    return Atom(m.group("pred"), terms)


def _check_acyclic(rules: Sequence[Rule]):
    deps: dict[str, set[str]] = {}
    for r in rules:
        deps.setdefault(r.head.predicate, set()).update(a.predicate for a in r.body)
    # depth-first search for a cycle among rule-defined predicates
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {p: WHITE for p in deps}

    def visit(p: str):
        colour[p] = GREY
        for d in deps.get(p, ()):
            if d not in colour:
                continue
            if colour[d] == GREY:
                raise ParseError(f"recursive predicate {d!r}")
            if colour[d] == WHITE:
                visit(d)
        colour[p] = BLACK

    for p in list(colour):
        if colour[p] == WHITE:
            visit(p)


def parse(text: str) -> Program:
    """Parse program text; rejects recursion, unsafe rules, and bad choice groups."""
    facts: list[Atom] = []
    prob_facts: list[tuple[float, Atom, int]] = []
    rules: list[Rule] = []
    bindings: list[Binding] = []
    populate: list[tuple[str, str]] = []

    for stmt, line, column in _statements(text):
        flat = " ".join(stmt.split())
        if re.match(r"^constraint\s", flat):
            m = _BINDING_RE.match(flat)
            if not m:
                raise ParseError("malformed binding", line, column)
            target = m.group("target").strip()
            if target == "top":
                bindings.append(Binding(m.group("id"), None))
                continue
            atom = _parse_atom(target, line)
            if not atom.terms or any(not _is_variable(t) for t in atom.terms):
                raise ParseError("binding arguments must be variables", line, column)
            if len(set(atom.terms)) != len(atom.terms):
                raise ParseError("binding arguments must be distinct variables", line, column)
            bindings.append(Binding(m.group("id"), atom))
        elif re.match(r"^populate\s", flat):
            m = _POPULATE_RE.match(flat)
            if not m:
                raise ParseError("malformed populate directive", line, column)
            if m.group("arity") != "1":
                raise ParseError("populate needs a unary predicate", line, column)
            populate.append((m.group("logvar"), m.group("pred")))
        elif ":-" in flat:
            head_text, body_text = flat.split(":-", 1)
            head = _parse_atom(head_text, line)
            body = tuple(_parse_atom(part, line) for part in body_text.split("&"))
            if not head.variables() <= set().union(*(a.variables() for a in body)):
                raise ParseError("unsafe rule: head variable not bound in body", line, column)
            rules.append(Rule(head, body))
        else:
            m = _PROBFACT_RE.match(flat)
            if m:
                prob = float(m.group("prob"))
                atom = _parse_atom(m.group("atom"), line)
                if not atom.is_ground():
                    raise ParseError("probabilistic facts must be ground", line, column)
                if prob <= 0:
                    raise ParseError("fact probabilities must be positive", line, column)
                prob_facts.append((prob, atom, line))
            else:
                atom = _parse_atom(flat, line)
                if not atom.is_ground():
                    raise ParseError("facts must be ground", line, column)
                facts.append(atom)

    # one mutually exclusive group per probabilistic predicate, declaration order
    groups: dict[str, list[tuple[float, Atom, int]]] = {}
    for prob, atom, line in prob_facts:
        groups.setdefault(atom.predicate, []).append((prob, atom, line))
    choice_groups = []
    plain_preds = {a.predicate for a in facts}
    rule_heads = {r.head.predicate for r in rules}
    for pred, entries in groups.items():
        if pred in plain_preds:
            raise ParseError(f"predicate {pred!r} mixes plain and probabilistic facts")
        if pred in rule_heads:
            raise ParseError(f"probabilistic predicate {pred!r} is also derived by rules")
        total = sum(p for p, _, _ in entries)
        if abs(total - 1.0) > 1e-9:
            raise ParseError(
                f"probabilities for {pred!r} sum to {total}, expected 1", entries[0][2]
            )
        choice_groups.append(
            ChoiceGroup(pred, tuple(a for _, a, _ in entries), tuple(p for p, _, _ in entries))
        )

    _check_acyclic(rules)

    seen_ids = set()
    for b in bindings:
        if b.parfactor in seen_ids:
            raise ParseError(f"duplicate binding for parfactor {b.parfactor!r}")
        seen_ids.add(b.parfactor)
    seen_lv = set()
    for lv, _ in populate:
        if lv in seen_lv:
            raise ParseError(f"duplicate populate directive for logvar {lv!r}")
        seen_lv.add(lv)

    return Program(tuple(facts), tuple(choice_groups), tuple(rules), tuple(bindings), tuple(populate))


# ---------------------------------------------------------------------------
# evaluation


_INTERNED: dict[str, Constant] = {}
_INTERNED_TUPLES: dict[tuple[str, ...], tuple[Constant, ...]] = {}


def _constant(name: str) -> Constant:
    """Constants are interned: one object per name, shared across worlds."""
    c = _INTERNED.get(name)
    if c is None:
        if len(_INTERNED) > 1_000_000:
            _INTERNED.clear()
        c = _INTERNED[name] = Constant(name)
    return c


def _constant_tuple(names: tuple[str, ...]) -> tuple[Constant, ...]:
    t = _INTERNED_TUPLES.get(names)
    if t is None:
        if len(_INTERNED_TUPLES) > 1_000_000:
            _INTERNED_TUPLES.clear()
        t = _INTERNED_TUPLES[names] = tuple(_constant(n) for n in names)
    return t


def _rule_order(rules: Sequence[Rule]) -> list[Rule]:
    """Dependency order; sound because recursion was rejected at parse time."""
    heads: dict[str, list[int]] = {}
    for i, r in enumerate(rules):
        heads.setdefault(r.head.predicate, []).append(i)
    done: set[int] = set()
    ordered: list[Rule] = []
    while len(ordered) < len(rules):
        for i, r in enumerate(rules):
            if i in done:
                continue
            ready = all(
                all(j in done for j in heads.get(a.predicate, []) if j != i) for a in r.body
            )
            if ready:
                done.add(i)
                ordered.append(r)
                break
        else:  # pragma: no cover - unreachable once recursion is rejected
            raise ValidationError("rule dependencies cannot be ordered")
    return ordered


def _derive(base: dict[str, set[tuple[str, ...]]], rules: Sequence[Rule]) -> dict[str, set[tuple[str, ...]]]:
    """Bottom-up evaluation to fixpoint.

    One pass over the rules in dependency order reaches the fixpoint because
    recursion is rejected: every body predicate is complete before its rule
    fires.
    """
    rel = {p: set(ts) for p, ts in base.items()}
    for rule in _rule_order(rules):
        bindings: list[dict] = [{}]
        for atom in rule.body:
            facts = rel.get(atom.predicate, ())
            if not facts:
                bindings = []
                break
            arity = len(atom.terms)
            positions = [(i, t, _is_variable(t)) for i, t in enumerate(atom.terms)]
            joined: list[dict] = []
            for b in bindings:
                fixed: list[tuple[int, str]] = []  # fact[i] must equal the value
                free: dict[str, int] = {}  # variable -> position it binds from
                same: list[tuple[int, int]] = []  # a repeated unbound variable
                for i, t, is_var in positions:
                    if not is_var or t in b:
                        fixed.append((i, b[t] if is_var else t))
                    elif t in free:
                        same.append((free[t], i))
                    else:
                        free[t] = i
                for fact in facts:
                    if len(fact) != arity:
                        continue
                    if fixed and any(fact[i] != v for i, v in fixed):
                        continue
                    if same and any(fact[i] != fact[j] for i, j in same):
                        continue
                    nb = dict(b)
                    for t, i in free.items():
                        nb[t] = fact[i]
                    joined.append(nb)
            bindings = joined
        if bindings:
            head = [(t, _is_variable(t)) for t in rule.head.terms]
            derived = rel.setdefault(rule.head.predicate, set())
            derived.update(
                tuple(b[t] if is_var else t for t, is_var in head) for b in bindings
            )
    return rel


def evaluate(prog: Program, tmpl: TemplateModel, dw) -> tuple[ConstraintWorld, ...]:
    """Run the program once per choice combination against one domain world.

    Returns one constraint world per element of the Cartesian product of the
    choice groups, weighted by the product of the chosen facts'
    probabilities, ordered by descending probability (ties by choice index).
    A program without probabilistic facts yields exactly one world with
    probability 1. Worlds whose binding queries came up empty are emitted
    with an empty constraint and flagged degenerate.
    """
    by_name = {lv.name: lv for lv in tmpl.logvars}
    bound = {b.parfactor for b in prog.bindings}
    missing = [n for n in tmpl.names if n not in bound]
    if missing:
        raise ValidationError(f"no binding for parfactor {missing[0]!r}")
    unknown = bound - set(tmpl.names)
    if unknown:
        raise ValidationError(f"binding for unknown parfactor {sorted(unknown)[0]!r}")

    domains = dw.domains
    pop_facts: list[Atom] = []
    for lv_name, pred in prog.populate:
        lv = by_name.get(lv_name)
        if lv is None or lv not in domains:
            raise ValidationError(f"missing domain for logvar {lv_name!r}")
        pop_facts.extend(Atom(pred, (c.name,)) for c in domains[lv])

    static_base: dict[str, set[tuple[str, ...]]] = {}
    for atom in itertools.chain(prog.facts, pop_facts):
        static_base.setdefault(atom.predicate, set()).add(atom.terms)

    worlds: list[ConstraintWorld] = []
    sizes = [range(len(g.facts)) for g in prog.choice_groups]
    for combo in itertools.product(*sizes):
        chosen = [prog.choice_groups[gi].facts[fi] for gi, fi in enumerate(combo)]
        prob = 1.0
        for gi, fi in enumerate(combo):
            prob *= prog.choice_groups[gi].probs[fi]
        base = {p: set(ts) for p, ts in static_base.items()}
        for atom in chosen:
            base.setdefault(atom.predicate, set()).add(atom.terms)
        rel = _derive(base, prog.rules)

        constraints: list[Constraint] = []
        degenerate = False
        for name, pf in zip(tmpl.names, tmpl.parfactors):
            binding = prog.binding_for(name)
            logvars = pf.constraint.logvars
            if binding.atom is None:
                constraints.append(_product(logvars, domains))
                continue
            if len(binding.atom.terms) != len(logvars):
                raise ValidationError(
                    f"binding for {name!r} has arity {len(binding.atom.terms)}, "
                    f"parfactor has {len(logvars)} logvars"
                )
            answers = rel.get(binding.atom.predicate, set())
            if not answers:
                constraints.append(Constraint.empty(logvars))
                degenerate = True
                continue
            # answers are unique string tuples; sorting them matches the
            # name order Constraint keeps, so the trusted path is safe
            constraints.append(
                Constraint._presorted(
                    logvars, tuple(_constant_tuple(t) for t in sorted(answers))
                )
            )
        worlds.append(ConstraintWorld(tuple(constraints), prob, combo, degenerate))

    worlds.sort(key=lambda w: (-w.prob, w.choice))
    return tuple(worlds)


def uniformize(worlds: Iterable) -> list:
    """Assign the implicit uniform distribution 1/m to unweighted worlds."""
    worlds = list(worlds)
    if any(w.prob is not None for w in worlds):
        raise ValidationError("worlds already carry probabilities")
    m = len(worlds)
    return [replace(w, prob=1.0 / m) for w in worlds]
