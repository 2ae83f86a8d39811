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
    constraint g0 <- top.                 binding to every tuple of the domains
    populate pred/1 from X.               one pred(c) fact per constant of X

All probabilistic facts sharing a predicate form one mutually exclusive,
exhaustive choice group whose probabilities must sum to 1; distinct groups
are independent, so a program with groups of sizes ``m1, m2, ...`` yields
``m1 * m2 * ...`` constraint worlds, each weighted by the product of its
chosen facts' probabilities. Rules are evaluated bottom-up to fixpoint,
which terminates because recursion is rejected up front.

The rules never run over a whole domain world. Constants the program text
names stay themselves; the others are interchangeable within their type,
the set of *typed* logvars whose domains hold them, a logvar being typed
when a ``populate`` directive fills it or a ``top`` binding covers it. So
the rules run once per choice combination and world *shape* (the named
constants each typed domain holds, and which types are non-empty), over the
named facts plus k representatives per type, k the largest bound arity.
Each answer becomes a pattern of named constants and numbered
representatives, and a world maps a pattern's representatives one-to-one
onto its own constants of their types. Positive rules commute with renaming
unnamed constants, and survive merging two of one type (Chandra & Merlin,
STOC 1977), so this gives exactly the answers of the whole world; the
README's design note has the argument. So a pattern whose representatives
are distinct is one block, whatever their types, and it holds every
pattern that merges them too. Only a pattern that repeats a representative
without its linear form among the answers, such as a diagonal, is listed.
A ``top`` binding runs no rule: its patterns take, at each logvar, the
named constants its domain holds, as one set, or one type that holds the
logvar, so their blocks partition the product of the domains.

A world's domains are constant sets, most of them one run of synthetic
names, and so are its types: the shape and the type pools come from set
meets and differences of the domains, and only the named constants are
tested for membership, so no step walks the constants of a domain.
"""

from __future__ import annotations

import graphlib
import itertools
import re
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError
from .model import Constraint, ConstantSet, TemplateModel, _decompose, _listed, _regions, _union

_IDENT = r"[a-z][A-Za-z0-9_]*"
_VAR = r"[A-Z_][A-Za-z0-9_]*"
_FLOAT = r"\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
_ATOM_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\((?P<args>[^()]*)\))?")
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
    """``head :- body``. ``joins`` is how :func:`_derive` runs it, worked out when the rule is made.

    Per body atom in order: its predicate and arity, the positions its
    constants fix (with the constants), the positions a variable bound by
    an earlier atom fixes (with that variable's place in a row of bound
    values), the pairs of positions a repeated new variable ties, and the
    positions the new variables bind from, in the order they take their
    places. Then the head: per term, its place in a row, or None and the
    constant.
    """

    head: Atom
    body: tuple[Atom, ...]
    joins: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        place: dict[str, int] = {}
        steps = []
        for atom in self.body:
            fixed, probe, same, fresh = [], [], [], {}
            for i, t in enumerate(atom.terms):
                if not _is_variable(t):
                    fixed.append((i, t))
                elif t in place:
                    probe.append((i, place[t]))
                elif t in fresh:
                    same.append((fresh[t], i))
                else:
                    fresh[t] = i
            for t in fresh:
                place[t] = len(place)
            steps.append(
                (atom.predicate, len(atom.terms), tuple(fixed), tuple(probe), tuple(same), tuple(fresh.values()))
            )
        unbound = [t for t in self.head.terms if _is_variable(t) and t not in place]
        if unbound:
            raise ValidationError(f"unsafe rule: head variable {unbound[0]} not bound in body")
        head = tuple((place[t], t) if _is_variable(t) else (None, t) for t in self.head.terms)
        object.__setattr__(self, "joins", (tuple(steps), head))

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


def _set_slots(world) -> tuple[None, dict]:
    """A lazy world's state for pickling and copying: the slots it has set.

    The default state reads every slot through ``getattr``, which would
    build what the world has not built yet; a slot left unset is left out,
    and the copy builds it when it is read.
    """
    state = {}
    for name in type(world).__slots__:
        try:
            state[name] = object.__getattribute__(world, name)
        except AttributeError:
            pass
    return None, state


@dataclass(init=False, slots=True, unsafe_hash=True)
class ConstraintWorld:
    """One generated constraint per template parfactor, optionally weighted.

    ``choice`` records which fact was picked from each choice group, in
    declaration order; ``degenerate`` flags worlds where some binding query
    had no answers and the constraint came out empty.

    A world that :func:`evaluate` made holds its :class:`_Recipe` (one per
    world shape and choice combination of an :class:`EvaluationMemo`) and
    its pools, the world's anonymous constants of each type in sorted type
    order, and no constraints: they are built from the two when first read,
    and kept. Its ``degenerate`` is counted from the two when it is made.
    A pickle or a copy of it holds no constraints it has not built.

    Its fields are not to be assigned, but the class does not refuse it:
    ``evaluate`` makes one per world, and a frozen dataclass sets each field
    through ``object.__setattr__``, which costs several times a plain
    assignment. It hashes by its fields all the same.
    """

    constraints: tuple[Constraint, ...]
    prob: float | None
    choice: tuple[int, ...] = ()
    degenerate: bool = False
    _recipe: "_Recipe | None" = field(default=None, init=False, compare=False, repr=False)
    _pools: tuple = field(default=(), init=False, compare=False, repr=False)

    def __init__(self, constraints, prob, choice=(), degenerate=False, recipe=None, pools=()):
        self.prob = prob
        self.choice = choice
        self.degenerate = degenerate
        self._recipe, self._pools = recipe, pools
        if recipe is None:
            self.constraints = constraints

    def __getattr__(self, name):
        # only the constraints of a world left to its recipe are missing until read
        if name != "constraints":
            raise AttributeError(name)
        self.constraints = self._recipe.constraints(self._pools)
        return self.constraints

    __getstate__ = _set_slots


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


def _read_atom(text: str, line: int | None = None) -> tuple[str, tuple[str, ...]]:
    """The name and stripped terms of ``name`` or ``name(t1, ..., tn)``.

    The one atom reader of the program and query front ends: it checks the
    shape only, and each front end checks the name and terms it allows.
    """
    m = _ATOM_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"malformed atom {text.strip()!r}", line)
    args = m["args"]
    terms = tuple(t.strip() for t in args.split(",")) if args and args.strip() else ()
    if "" in terms:
        raise ParseError(f"malformed atom {text.strip()!r}: empty term", line)
    return m["name"], terms


def _parse_atom(text: str, line: int) -> Atom:
    pred, terms = _read_atom(text, line)
    if not re.fullmatch(_IDENT, pred):
        raise ParseError(f"malformed atom {text.strip()!r}", line)
    for t in terms:
        if not re.fullmatch(rf"{_IDENT}|{_VAR}|\d+", t):
            raise ParseError(f"malformed term {t!r}", line)
    return Atom(pred, terms)


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

    _rule_order(rules)

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


def _rule_order(rules: Sequence[Rule]) -> list[Rule]:
    """The rules in dependency order, each after every rule that derives a predicate of its body.

    Rules of one head keep their declaration order. A predicate that depends
    on itself, directly or through others, raises a ParseError naming it.
    """
    graph = graphlib.TopologicalSorter()
    for r in rules:
        graph.add(r.head.predicate, *(a.predicate for a in r.body))
    try:
        rank = {p: i for i, p in enumerate(graph.static_order())}
    except graphlib.CycleError as exc:
        raise ParseError(f"recursive predicate {exc.args[1][0]!r}") from None
    return sorted(rules, key=lambda r: rank[r.head.predicate])


def _derive(base: dict[str, set[tuple[str, ...]]], rules: Sequence[Rule]) -> dict[str, set[tuple[str, ...]]]:
    """Bottom-up evaluation to fixpoint of ``rules``, given in :func:`_rule_order`.

    One pass over the rules in that order reaches the fixpoint because
    recursion is rejected: every body predicate is complete before its rule
    fires. A binding of a rule's body so far is a row of the values of the
    variables bound so far, and every row binds the same ones, so each body
    atom's facts are indexed once on the positions those variables fix,
    after its constants and repeated variables filter them (a hash join),
    and a row reads only the facts that match it. ``Rule.joins`` gives the
    positions.
    """
    rel = {p: set(ts) for p, ts in base.items()}
    for rule in rules:
        steps, head = rule.joins
        rows: list[tuple] = [()]
        for pred, arity, fixed, probe, same, fresh in steps:
            index: dict[tuple, list[tuple]] = {}
            for fact in rel.get(pred, ()):
                if len(fact) != arity or (fixed and any(fact[i] != c for i, c in fixed)) or (
                    same and any(fact[i] != fact[j] for i, j in same)
                ):
                    continue
                index.setdefault(tuple([fact[i] for i, _ in probe]), []).append(tuple([fact[i] for i in fresh]))
            rows = [row + more for row in rows for more in index.get(tuple([row[c] for _, c in probe]), ())]
            if not rows:
                break
        if rows:
            derived = rel.setdefault(rule.head.predicate, set())
            derived.update(tuple([t if c is None else row[c] for c, t in head]) for row in rows)
    return rel


@dataclass
class EvaluationMemo:
    """What ``evaluate`` shares between the domain worlds of one program and template.

    ``served`` is ``(program, template, checked)``: the program and
    template of the first call, and what they give on their own
    (:func:`_checked`), so that is worked out once per memo. A call with
    other objects raises. A caller that has checked them already may pass
    ``served`` itself. ``shapes`` maps a world shape to its choice worlds:
    each one's choice, probability and :class:`_Recipe`, which every world
    of the shape builds its constraints from, so a world keeps only its
    recipe and pools until they are read. A memo grows with the worlds it
    serves: make one per expansion and let it go with it.
    """

    served: tuple = ()
    shapes: dict = field(default_factory=dict)


def _named(prog: Program) -> frozenset[str]:
    """The constants the program text mentions."""
    atoms = itertools.chain(
        prog.facts,
        *(g.facts for g in prog.choice_groups),
        *((r.head, *r.body) for r in prog.rules),
    )
    return frozenset(t for a in atoms for t in a.terms if not _is_variable(t))


def _pattern(answer: tuple, singletons: dict, slot: dict) -> tuple:
    """An answer over representatives, each renumbered by its first appearance.

    A named constant becomes its singleton set of named constants, from
    ``singletons``; a representative becomes ``(slot, number)``, ``slot``
    giving its type's place in a world's pools, so answers that differ only
    by which representatives they use coincide.
    """
    first: dict = {}
    return tuple([
        singletons[t] if isinstance(t, str) else (slot[t[0]], first.setdefault(t, len(first))) for t in answer
    ])


def _checked(prog: Program, tmpl: TemplateModel) -> tuple:
    """What :func:`evaluate` needs of the program and template alone, checked.

    The names of the typed logvars: each one a ``populate`` directive
    fills, then each other one a ``top`` binding covers. Each parfactor's
    binding atom, or for ``top`` its parfactor's logvar names, the number
    ``k`` of representatives per type, the rules in dependency order, and
    each named constant's singleton set, in name order, which the blocks of
    every world share. Raises on a parfactor without a binding, a binding of no
    parfactor or of another arity, a ``populate`` of a logvar the template
    lacks, and recursion.
    """
    bound = {b.parfactor for b in prog.bindings}
    missing = [n for n in tmpl.names if n not in bound]
    if missing:
        raise ValidationError(f"no binding for parfactor {missing[0]!r}")
    unknown = bound - set(tmpl.names)
    if unknown:
        raise ValidationError(f"binding for unknown parfactor {sorted(unknown)[0]!r}")
    logvars = [tuple(lv.name for lv in pf.constraint.logvars) for pf in tmpl.parfactors]
    atoms = tuple(prog.binding_for(name).atom or lvs for name, lvs in zip(tmpl.names, logvars))
    k = 0  # representatives per type: enough for every equality pattern of an answer
    for name, lvs, atom in zip(tmpl.names, logvars, atoms):
        if isinstance(atom, Atom):
            if len(atom.terms) != len(lvs):
                raise ValidationError(
                    f"binding for {name!r} has arity {len(atom.terms)}, parfactor has {len(lvs)} logvars"
                )
            k = max(k, len(atom.terms))
    names = {lv.name for lv in tmpl.logvars}
    populated = [lv_name for lv_name, _ in prog.populate]
    for lv_name in populated:
        if lv_name not in names:
            raise ValidationError(f"populate directive for unknown logvar {lv_name!r}")
    top = (lv_name for atom in atoms if not isinstance(atom, Atom) for lv_name in atom)
    singletons = {c: ConstantSet((c,)) for c in sorted(_named(prog))}
    return tuple(dict.fromkeys([*populated, *top])), atoms, k, _rule_order(prog.rules), singletons


class _Recipe:
    """How the worlds of one shape and choice combination fill each parfactor's constraint.

    ``parts`` holds, per parfactor, its logvars and its binding's answer
    patterns, each representative's type given as its slot in a world's
    pools (sorted type order), so one recipe serves every world of the
    shape. It is ``formed`` when every pattern's representatives are
    distinct: each pattern is then one block of pools and named sets, none
    of them empty. A formed recipe tags the form of its worlds
    (``universe.WeightedModel.form``). ``template`` is the template whose
    parfactors the parts fill.
    """

    __slots__ = ("template", "parts", "formed", "_needs")

    def __init__(self, template: TemplateModel, parts: tuple):
        self.template = template
        self.parts = parts
        needs = [[_need(p) for p in ps] for _, ps in parts]
        self.formed = not any(any(n) for n in needs)
        # per parfactor that may be empty, what each of its patterns needs of
        # a world's pools: a pattern with distinct representatives is one
        # block, never empty, so a parfactor with one is left out
        self._needs = tuple(tuple(n) for n in needs if () not in n)

    def degenerate(self, pools: Sequence[ConstantSet]) -> bool:
        """Whether a world whose pools, in slot order, are ``pools`` has an empty constraint.

        It is counted, with no constraint built: a pattern lists a tuple
        exactly when each slot's pool holds as many constants as the pattern
        has distinct representatives of the slot (:func:`_list`).
        """
        return bool(self._needs) and not all(
            any(all(len(pools[s]) >= n for s, n in need) for need in ns) for ns in self._needs
        )

    def constraints(self, pools: Sequence[ConstantSet]) -> tuple[Constraint, ...]:
        """The constraints of a world whose pools, in slot order, are ``pools``."""
        return tuple(Constraint(lvs, _union([b for p in ps for b in _blocks(p, pools)])) for lvs, ps in self.parts)


def _need(pattern: tuple) -> tuple[tuple[int, int], ...]:
    """``(slot, count)`` per slot of a pattern that repeats a representative: its distinct representatives there.

    It is empty for a pattern whose representatives are distinct.
    """
    reps = [t for t in pattern if isinstance(t, tuple)]
    distinct = set(reps)
    if len(distinct) == len(reps):
        return ()
    slots = [slot for slot, _ in distinct]
    return tuple((slot, slots.count(slot)) for slot in sorted(set(slots)))


def _choice_worlds(prog: Program, tmpl: TemplateModel, checked: tuple, held: dict, types) -> list:
    """``(choice, prob, recipe)`` per choice combination of one world shape.

    The rules run over the named facts plus ``k`` representatives of each
    anonymous type, which get facts through the ``populate`` directives of
    the type's logvars only. The :class:`_Recipe` holds each parfactor's
    binding answers as patterns, but for those whose linear form
    (:func:`_linear`) is an answer too; a ``top`` binding's are made once,
    before the rules run. ``checked`` is :func:`_checked`'s, ``held`` maps
    each typed logvar to the named constants its domain holds, and
    ``types`` are the shape's types in sorted order.
    """
    _, atoms, k, rules, singletons = checked
    slot = {typ: i for i, typ in enumerate(types)}
    logvars = [pf.constraint.logvars for pf in tmpl.parfactors]

    def options(lv_name: str) -> list:
        named = [singletons[c] for c in held[lv_name]]
        holding = [(slot[typ], 0) for typ in types if lv_name in typ]
        return [named[0].union(*named[1:]), *holding] if named else holding

    top = {a: tuple(_linear(p) for p in itertools.product(*map(options, a))) for a in atoms if not isinstance(a, Atom)}
    base: dict[str, set[tuple]] = {}
    for atom in prog.facts:
        base.setdefault(atom.predicate, set()).add(atom.terms)
    for lv_name, pred in prog.populate:
        facts = base.setdefault(pred, set())
        facts.update((c,) for c in held[lv_name])
        facts.update(((typ, i),) for typ in types if lv_name in typ for i in range(k))

    worlds = []
    sizes = [range(len(g.facts)) for g in prog.choice_groups]
    for combo in itertools.product(*sizes):
        prob = 1.0
        chosen = dict(base)  # _derive copies what it extends
        for g, fi in zip(prog.choice_groups, combo):
            prob *= g.probs[fi]
            chosen[g.predicate] = {*chosen.get(g.predicate, ()), g.facts[fi].terms}
        rel = _derive(chosen, rules)
        parts = []
        for lvs, a in zip(logvars, atoms):
            if isinstance(a, Atom):
                found = {_pattern(t, singletons, slot) for t in rel.get(a.predicate, ())}
                parts.append((lvs, tuple(p for p in found if (lin := _linear(p)) == p or lin not in found)))
            else:
                parts.append((lvs, top[a]))
        worlds.append((combo, prob, _Recipe(tmpl, tuple(parts))))
    worlds.sort(key=lambda w: (-w[1], w[0]))
    return worlds


def _linear(pattern: tuple) -> tuple:
    """The pattern with a representative of its own at each representative position, numbered in order.

    It is the pattern itself exactly when the representatives are distinct.
    """
    n = itertools.count()
    return tuple([(t[0], next(n)) if isinstance(t, tuple) else t for t in pattern])


def _blocks(pattern: tuple, pools: Sequence[ConstantSet]) -> tuple:
    """A world's blocks of one pattern of a :class:`_Recipe`.

    A named entry is its set of named constants and a representative the
    pool of its slot, so a pattern whose representatives are distinct is one
    block, whatever their types; it holds the tuples of each pattern that
    merges its representatives too, which :func:`_choice_worlds` drops. Any
    other pattern is listed and decomposed.
    """
    reps = [t for t in pattern if isinstance(t, tuple)]
    if len(set(reps)) == len(reps):
        return (tuple(pools[t[0]] if isinstance(t, tuple) else t for t in pattern),)
    return _decompose(_list(pattern, pools))


def _list(pattern: tuple, pools: Sequence[ConstantSet]) -> list[tuple[str, ...]]:
    """A world's tuples of one pattern of a :class:`_Recipe`.

    Each of the pattern's representatives is mapped one-to-one onto the
    world's anonymous constants of its type, the pool of its slot, so a
    pattern lists nothing when a type holds too few.
    """
    reps = {number: slot for slot, number in (t for t in pattern if isinstance(t, tuple))}
    fixed = tuple(t for t in pattern if not isinstance(t, tuple))
    m = len(reps)
    named = iter(range(m, m + len(fixed)))
    order = tuple(t[1] if isinstance(t, tuple) else next(named) for t in pattern)
    rows = _listed([tuple(pools[reps[j]] for j in range(m)) + fixed])
    if len(set(reps.values())) < m:  # two representatives of one type
        rows = (r for r in rows if len(set(r[:m])) == m)
    if order != tuple(range(len(order))):
        rows = map(itemgetter(*order), rows)
    return list(rows)


def evaluate(
    prog: Program, tmpl: TemplateModel, dw, memo: EvaluationMemo | None = None
) -> tuple[ConstraintWorld, ...]:
    """The constraint worlds the program generates in one domain world.

    Returns one constraint world per element of the Cartesian product of the
    choice groups, weighted by the product of the chosen facts'
    probabilities, ordered by descending probability (ties by choice index).
    A program without probabilistic facts yields exactly one world with
    probability 1. Every constraint is the union of its binding's pattern
    blocks; worlds where a binding has none are emitted with that
    constraint empty and flagged degenerate. Each world holds its recipe
    and pools, and builds its constraints when they are first read
    (:class:`ConstraintWorld`); its ``degenerate`` is counted here, without them.

    The rules run once per choice combination and world shape, not per
    world: pass one ``memo`` to the calls on the worlds of one expansion and
    worlds of equal shape share the run. The program is checked against the
    template, its rules ordered and its named constants' singleton sets made
    on the first call only, so a memo serves one program and template, and
    raises when it is given others.
    """
    if memo is None:
        memo = EvaluationMemo()
    if not memo.served:
        memo.served = (prog, tmpl, _checked(prog, tmpl))
    elif memo.served[0] is not prog or memo.served[1] is not tmpl:
        raise ValidationError("an evaluation memo serves the program and template of its first call")
    checked = memo.served[2]
    typed, singletons = checked[0], checked[4]
    domains = dw.domains
    held = []  # per typed logvar, the named constants its domain holds, sorted
    anonymous = []
    for lv_name in typed:
        domain = domains.get(lv_name)
        if domain is None:
            raise ValidationError(f"missing domain for logvar {lv_name!r}")
        named = tuple([c for c in singletons if c in domain])
        held.append(named)
        anonymous.append(domain - ConstantSet(named) if named else domain)
    # each type (the typed logvars whose domains hold a constant) with its
    # anonymous constants, in sorted type order: the regions the anonymous
    # parts of the domains cut
    pools = sorted([(tuple([typed[j] for j in within]), region) for region, within in _regions(anonymous)])
    shape = (tuple(held), tuple([typ for typ, _ in pools]))
    choice_worlds = memo.shapes.get(shape)
    if choice_worlds is None:
        choice_worlds = memo.shapes[shape] = _choice_worlds(prog, tmpl, checked, dict(zip(typed, held)), shape[1])
    pooled = tuple([region for _, region in pools])
    return tuple([
        ConstraintWorld(None, prob, combo, recipe.degenerate(pooled), recipe, pooled)
        for combo, prob, recipe in choice_worlds
    ])


def uniformize(worlds: Iterable) -> list:
    """Assign the implicit uniform distribution 1/m to unweighted worlds."""
    worlds = list(worlds)
    if any(w.prob is not None for w in worlds):
        raise ValidationError("worlds already carry probabilities")
    m = len(worlds)
    return [replace(w, prob=1.0 / m) for w in worlds]
