"""Shared model builders and independent brute-force oracles for the tests.

The oracles deliberately avoid the code paths they check: joint enumeration
walks every assignment of the full joint, the datalog oracle grounds every
rule over every constant combination, the program oracle runs the rules
tuple at a time over each domain world's whole populated database, and the
skyline oracle is the quadratic dominance check. ``decompose`` works out
the canonical blocks of a constraint from its tuples, where the library
works them out from blocks. ``shape_keyed_query_all`` keys every world by
``model._shape``, where ``query_all`` keys a formed world by its form.
``eager_evaluate`` builds every constraint of a world at once, from a rule
run of its own, where ``evaluate`` leaves a formed world's constraints to its
memo recipe until they are read.
``reference_plan`` is ``engine._plan`` with phase 2 as it was before it
summed out private leaves: every factor is grounded whole and eliminated
by the loop and product routine of that time.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from unittest import mock

import numpy as np

from liftworlds import (
    BetaBinomialDomain,
    Constant,
    ConstantSet,
    Constraint,
    DomainSpec,
    GroundAtom,
    InferenceError,
    Logvar,
    Parfactor,
    ParameterisedModel,
    PotentialTable,
    PRV,
    TemplateModel,
    UniverseModel,
    parse_program,
)
from liftworlds import engine, program, queries
from liftworlds.model import _Identifier, _listed, _regions, _shape, _union
from liftworlds.program import ConstraintWorld
from liftworlds.queries import AnswerEntry, AnswerSet, SkippedModel

X = Logvar("X")
T = Logvar("T")
EPID = PRV("Epid")
SICK = PRV("Sick", (X,))
TRAVEL = PRV("Travel", (X,))
TREAT = PRV("Treat", (X, T))

# bundled example tables: P(Sick(x1)=true) declines as the domain grows
V0 = (3.0, 1.0)
V1 = (2.0, 1.0, 3.0, 4.0, 3.0, 4.0, 3.0, 1.0)
V2 = (1.0, 4.0, 2.0, 3.0, 2.0, 4.0, 4.0, 1.0)

EXAMPLE_PROGRAM = """
element_of_C2(X,Y1) :- linked(X,Y1,Y2).
element_of_C2(X,Y2) :- linked(X,Y1,Y2).
linked(X,Y1,Y2) :- instance_of_X(X) & pair(Y1,Y2).
0.7 pair(t1,t2).
0.2 pair(t2,t3).
0.1 pair(t1,t3).

populate instance_of_X/1 from X.

constraint g0 <- top.
constraint g1 <- instance_of_X(X).
constraint g2 <- element_of_C2(X,Y).
"""


def xs(n: int) -> list[Constant]:
    return [Constant(f"x{i + 1}") for i in range(n)]


def ts(n: int) -> list[Constant]:
    return [Constant(f"t{i + 1}") for i in range(n)]


def example_tables(rng: np.random.Generator | None = None):
    if rng is None:
        return V0, V1, V2
    return rng.uniform(0.1, 2.0, 2), rng.uniform(0.1, 2.0, 8), rng.uniform(0.1, 2.0, 8)


def epidemic_model(dx: int, dt: int, rng: np.random.Generator | None = None) -> ParameterisedModel:
    """Epid/Sick/Travel/Treat model over persons x1..x{dx} and dt treatments.

    Its constraints are one block each, the persons one run, so a model of
    any size is built at once; ``ragged_model`` of every (person, treatment)
    pair is the same model.
    """
    v0, v1, v2 = example_tables(rng)
    persons, treatments = ConstantSet(runs=((1, dx),)), ConstantSet(ts(dt))
    g0 = Parfactor(PotentialTable((EPID,), v0), Constraint.extensional((), [()]))
    g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), v1), Constraint((X,), ((persons,),)))
    g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), v2), Constraint((X, T), ((persons, treatments),)))
    return ParameterisedModel((g0, g1, g2))


def ragged_model(pairs, rng: np.random.Generator | None = None) -> ParameterisedModel:
    """Epid/Sick/Travel/Treat model where person p has treatment t when (p, t) is in ``pairs``.

    Sick and Travel range over the persons ``pairs`` names. A person with a
    different number of treatments from another makes Treat ragged.
    """
    v0, v1, v2 = example_tables(rng)
    people = dict.fromkeys(p for p, _ in pairs)
    g0 = Parfactor(PotentialTable((EPID,), v0), Constraint.extensional((), [()]))
    g1 = Parfactor(
        PotentialTable((EPID, SICK, TRAVEL), v1),
        Constraint.extensional((X,), [(p,) for p in people]),
    )
    g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), v2), Constraint.extensional((X, T), pairs))
    return ParameterisedModel((g0, g1, g2))


def epidemic_template(rng: np.random.Generator | None = None) -> TemplateModel:
    v0, v1, v2 = example_tables(rng)
    g0 = Parfactor(PotentialTable((EPID,), v0), Constraint.empty(()))
    g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), v1), Constraint.empty((X,)))
    g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), v2), Constraint.empty((X, T)))
    return TemplateModel((g0, g1, g2), ("g0", "g1", "g2"))


# every pair of persons, X and Y both populated from one predicate: each
# answer pattern has two representatives of one type wherever X's and Y's
# domains overlap
PAIR_PROGRAM = """
pair(X,Y) :- person(X) & person(Y).
populate person/1 from X.
populate person/1 from Y.
constraint g0 <- top.
constraint g1 <- person(X).
constraint g2 <- pair(X,Y).
"""


def pair_universe(bins: int, step: int) -> UniverseModel:
    """E, S(X) and K(X,Y) over :data:`PAIR_PROGRAM`, with beta-binomial X and Y of ``bins`` bins of ``step``."""
    y = Logvar("Y")
    e, s, k = PRV("E"), PRV("S", (X,)), PRV("K", (X, y))
    template = TemplateModel((
        Parfactor(PotentialTable((e,), (3.0, 1.0)), Constraint.empty(())),
        Parfactor(PotentialTable((e, s), (2.0, 1.0, 1.0, 3.0)), Constraint.empty((X,))),
        Parfactor(PotentialTable((s, k), (1.0, 2.0, 3.0, 1.0)), Constraint.empty((X, y))),
    ), ("g0", "g1", "g2"))
    domain = BetaBinomialDomain(2.0, 3.0, bins=bins, step=step)
    return UniverseModel(template, parse_program(PAIR_PROGRAM), DomainSpec({"X": domain, "Y": domain}))


def decompose(tuples) -> tuple:
    """The canonical disjoint blocks of distinct tuples of one width, from the tuples.

    One block when the tuples are the product of their column sets;
    otherwise the first column's constants are grouped by the rest of their
    tuples, and each distinct rest is decomposed once. Equal tuple sets give
    equal frozensets of blocks.
    """
    if not tuples:
        return ()
    columns = tuple(map(ConstantSet, zip(*tuples)))
    if math.prod(map(len, columns)) == len(tuples):
        return (columns,)
    rests: dict = {}
    for t in tuples:
        rests.setdefault(t[0], []).append(t[1:])
    firsts: dict = {}
    for first, rest in rests.items():
        firsts.setdefault(frozenset(rest), []).append(first)
    return tuple((ConstantSet(cs),) + b for rest, cs in firsts.items() for b in decompose(rest))


def group_instances(group) -> set[tuple]:
    """Every instance of an engine group, a frozenset of blocks of constant sets."""
    return set(_listed(group))


def members(s) -> list:
    """A constant set's constants, in the string order the library lists them."""
    return [c for (c,) in _listed([(s,)])]


def record_constants(monkeypatch) -> list[str]:
    """The name of every ``Constant`` made from now until the test ends, in order."""
    made: list[str] = []
    make = _Identifier.__new__

    def recording(cls, name):
        made.append(name)
        return make(cls, name)

    monkeypatch.setattr(Constant, "__new__", staticmethod(recording))
    return made


def all_atoms(m: ParameterisedModel) -> list[GroundAtom]:
    seen: dict[GroundAtom, None] = {}
    for f in m.ground():
        for atom in f.atoms:
            seen.setdefault(atom)
    return sorted(seen)


def joint_enumeration(m: ParameterisedModel, targets, evidence=()):
    """Exact conditional marginal by summing the full joint; <= ~14 atoms only."""
    factors = m.ground()
    ranges: dict[GroundAtom, list[str]] = {}
    for f in factors:
        for atom, arg in zip(f.atoms, f.table.args):
            ranges[atom] = list(arg.range)
    atoms = sorted(ranges)
    evidence = dict(evidence)
    out = np.zeros([len(ranges[t]) for t in targets])
    for assignment in itertools.product(*[ranges[a] for a in atoms]):
        amap = dict(zip(atoms, assignment))
        if any(amap[a] != v for a, v in evidence.items()):
            continue
        weight = 1.0
        for f in factors:
            idx = tuple(
                arg.range.index(amap[atom]) for atom, arg in zip(f.atoms, f.table.args)
            )
            weight *= float(f.table.as_array()[idx])
        pos = tuple(ranges[t].index(amap[t]) for t in targets)
        out[pos] += weight
    return out.ravel() / out.sum()


def unnormalized_table(factors, keep, ranges):
    """Product of ground factors, atoms outside ``keep`` summed away."""
    mentioned = sorted({a for f in factors for a in f.atoms} | set(keep))
    out = np.zeros([len(ranges[a]) for a in keep])
    for assignment in itertools.product(*[ranges[a] for a in mentioned]):
        amap = dict(zip(mentioned, assignment))
        weight = 1.0
        for f in factors:
            idx = tuple(
                arg.range.index(amap[atom]) for atom, arg in zip(f.atoms, f.table.args)
            )
            weight *= float(f.table.as_array()[idx])
        out[tuple(ranges[a].index(amap[a]) for a in keep)] += weight
    return out


def naive_datalog(facts: set[tuple[str, tuple[str, ...]]], rules):
    """Ground-rule enumeration to fixpoint over every constant combination."""
    facts = set(facts)
    constants = sorted({c for _, terms in facts for c in terms})
    changed = True
    while changed:
        changed = False
        for rule in rules:
            variables = sorted(
                {v for atom in (rule.head, *rule.body) for v in atom.variables()}
            )
            for combo in itertools.product(constants, repeat=len(variables)):
                sub = dict(zip(variables, combo))

                def inst(atom):
                    return (atom.predicate, tuple(sub.get(t, t) for t in atom.terms))

                if all(inst(b) in facts for b in rule.body):
                    head = inst(rule.head)
                    if head not in facts:
                        facts.add(head)
                        changed = True
    return facts


def _is_variable(term: str) -> bool:
    return term[0].isupper() or term[0] == "_"


def _fire(rule, rel) -> set[tuple[str, ...]]:
    """Head tuples of one rule, joining its body one fact at a time."""
    bindings: list[dict] = [{}]
    for atom in rule.body:
        joined = []
        for b in bindings:
            for fact in rel.get(atom.predicate, ()):
                if len(fact) != len(atom.terms):
                    continue
                nb = dict(b)
                if all(
                    nb.setdefault(t, v) == v if _is_variable(t) else t == v
                    for t, v in zip(atom.terms, fact)
                ):
                    joined.append(nb)
        bindings = joined
    return {tuple(b.get(t, t) for t in rule.head.terms) for b in bindings}


def datalog_fixpoint(facts: dict[str, set], rules) -> dict[str, set]:
    """Fire every rule until nothing new is derived."""
    rel = {p: set(ts) for p, ts in facts.items()}
    while True:
        new = {(r.head.predicate, t) for r in rules for t in _fire(r, rel)}
        new = {(p, t) for p, t in new if t not in rel.get(p, ())}
        if not new:
            return rel
        for p, t in new:
            rel.setdefault(p, set()).add(t)


def full_evaluate(prog, tmpl: TemplateModel, dw) -> list[ConstraintWorld]:
    """The program's constraint worlds in ``dw``, from its whole populated database."""
    by_name = {lv.name: lv for lv in tmpl.logvars}
    base: dict[str, set] = {}
    for atom in prog.facts:
        base.setdefault(atom.predicate, set()).add(atom.terms)
    for lv_name, pred in prog.populate:
        base.setdefault(pred, set()).update((str(c),) for c in members(dw.domains[by_name[lv_name]]))
    worlds = []
    for combo in itertools.product(*(range(len(g.facts)) for g in prog.choice_groups)):
        prob = 1.0
        facts = {p: set(ts) for p, ts in base.items()}
        for g, fi in zip(prog.choice_groups, combo):
            prob *= g.probs[fi]
            facts.setdefault(g.predicate, set()).add(g.facts[fi].terms)
        rel = datalog_fixpoint(facts, prog.rules)
        constraints, degenerate = [], False
        for name, pf in zip(tmpl.names, tmpl.parfactors):
            atom = prog.binding_for(name).atom
            logvars = pf.constraint.logvars
            if atom is None:
                every = itertools.product(*(members(dw.domains[lv]) for lv in logvars))
                constraints.append(Constraint.extensional(logvars, every))
            elif rel.get(atom.predicate):
                answers = [tuple(map(Constant, t)) for t in rel[atom.predicate]]
                constraints.append(Constraint.extensional(logvars, answers))
            else:
                constraints.append(Constraint.empty(logvars))
                degenerate = True
        worlds.append(ConstraintWorld(tuple(constraints), prob, combo, degenerate))
    worlds.sort(key=lambda w: (-w.prob, w.choice))
    return worlds


def eager_evaluate(prog, tmpl: TemplateModel, dw) -> list[ConstraintWorld]:
    """The program's constraint worlds in ``dw``, each constraint built at once.

    This is how ``evaluate`` built a world before a formed world kept its
    recipe: the world's named constants and type pools are worked out here,
    the rules run afresh (no memo is shared with another world), every
    constraint is the union of its patterns' blocks, and a world is
    degenerate when one of them comes out empty.
    """
    checked = program._checked(prog, tmpl)
    typed, *_, singletons = checked
    held = {lv: tuple(sorted(c for c in singletons if c in dw.domains[lv])) for lv in typed}
    anonymous = [dw.domains[lv] - ConstantSet(held[lv]) for lv in typed]
    pools = {tuple(typed[j] for j in within): region for region, within in _regions(anonymous)}
    types = tuple(sorted(pools))
    pooled = [pools[t] for t in types]
    worlds = []
    for combo, prob, recipe in program._choice_worlds(prog, tmpl, checked, held, types):
        constraints = tuple(
            Constraint(lvs, _union([b for p in patterns for b in program._blocks(p, pooled)]))
            for lvs, patterns in recipe.parts
        )
        worlds.append(ConstraintWorld(constraints, prob, combo, not all(c.size for c in constraints)))
    return worlds


def expansion_digest(models) -> str:
    """SHA-256 over every model's provenance, exact weight and constraint tuples."""
    h = hashlib.sha256()
    for wm in models:
        p = wm.provenance
        head = (p.domain_world, p.constraint_world, sorted(p.domain_sizes.items()),
                p.varying, wm.prob.hex(), wm.degenerate)
        h.update(repr(head).encode())
        for pf in () if wm.model is None else wm.model.parfactors:
            c = pf.constraint
            h.update(repr(("extensional", [str(lv) for lv in c.logvars],
                           [[str(a) for a in t] for t in c.tuples])).encode())
    return h.hexdigest()


def brute_force_skyline(points: np.ndarray) -> list[int]:
    """Indices on the Pareto frontier of (m, p) pairs, O(n^2) dominance check."""
    m, p = points[:, 0], points[:, 1]
    keep = []
    for i in range(len(points)):
        dominated = np.any(
            (m >= m[i]) & (p >= p[i]) & ((m > m[i]) | (p > p[i]))
        )
        if not dominated:
            keep.append(i)
    return keep


def shape_keyed_query_all(models, q) -> AnswerSet:
    """``query_all`` with every world keyed by its own ``model._shape``, forms ignored.

    It groups the worlds, skips them and hands them to ``queries._answers``
    in the order ``query_all`` did before worlds carried forms, so both make
    the same plans and ``lifted_query`` calls when their keys agree.
    """
    skipped = []
    atoms = tuple(q.targets) + q.evidence.atoms()
    fixed = [ConstantSet((c,)) for c in sorted({c for a in atoms for c in a.args})]
    structures: dict = {}
    keyed = []
    for wm in models:
        if wm.degenerate or wm.model is None:
            skipped.append(SkippedModel(wm.provenance, "degenerate world"))
            continue
        sizes, structure, regions = _shape(wm.model, fixed)
        if structure not in structures:
            structures[structure] = ([a for a in atoms if not wm.model.contains_atom(a)], {}, {})
        missing, worlds, answers = structures[structure]
        if missing:
            skipped.append(SkippedModel(wm.provenance, f"atom {missing[0]} not in model"))
            continue
        worlds.setdefault(sizes, (wm, regions))
        keyed.append((wm, answers, sizes))
    if models and not keyed:
        raise InferenceError("no model can answer the query: " + skipped[0].reason)
    for structure, (_, worlds, answers) in structures.items():
        answers.update(queries._answers(worlds, q, fixed, structure))
    entries = tuple(AnswerEntry(wm.provenance, wm.prob, answers[sizes]) for wm, answers, sizes in keyed)
    return AnswerSet(q, entries, tuple(skipped))


def _reference_product(factors, plan):
    """``engine._ground_product`` without its fast path: every holder's layout is worked out."""
    if len(factors) == 1:
        return factors[0]
    keys, data, logtab = factors[0]
    views = {(logtab, tuple(range(len(keys)))): 0}
    order = [0]
    for f_keys, f_data, logtab in factors[1:]:
        new, src = [], []
        for k, x in enumerate(f_keys):
            if x in keys:
                src.append(keys.index(x))
            else:
                src.append(len(keys) + len(new))
                new.append(k)
        keys += tuple([f_keys[k] for k in new])
        data += tuple([f_data[k] for k in new])
        order.append(views.setdefault((logtab, tuple(src)), len(views)))
    refs, srcs = zip(*views)
    return keys, data, plan.tab(engine._product, refs, srcs, tuple(order), len(keys))


def _reference_eliminate(factors, ids, n_targets, log, plan, summed=()):
    """Phase 2's elimination loop before atoms were summed out ahead of grounding.

    Every atom, in one factor or many, takes the same path: the product of
    its holders, then one sum-out step recorded through ``plan.tab``.
    """
    assert not summed
    keys = list(ids)
    order = sorted(range(n_targets, len(keys)), key=keys.__getitem__)
    if not order:
        return list(factors)
    rank = [0] * len(keys)
    for r, i in enumerate(order):
        rank[i] = r
    live = dict(enumerate(factors))
    holders: dict[int, set[int]] = {}
    for j, f in live.items():
        for i in f[0]:
            if i >= n_targets:
                holders.setdefault(i, set()).add(j)
    heap = [(len(held), rank[i]) for i, held in holders.items()]
    heapq.heapify(heap)
    while heap:
        count, r = heapq.heappop(heap)
        i = order[r]
        if len(holders.get(i, ())) != count:
            continue
        gone = sorted(holders.pop(i))
        first = gone[0]
        if log is not None:
            detail = f"ground {GroundAtom(*keys[i])}"
            log += [engine.OpRecord("multiply", detail)] * (count - 1) + [engine.OpRecord("sum_out", detail, 1)]
        atoms, ranges, logtab = _reference_product([live.pop(j) for j in gone], plan)
        axis = atoms.index(i)
        step = plan.tab(engine._logsumexp, (logtab,), axis - len(atoms))
        live[first] = prod = (atoms[:axis] + atoms[axis + 1 :], ranges[:axis] + ranges[axis + 1 :], step)
        if count == 1:
            continue
        for other in prod[0]:
            held = holders.get(other)
            if held is not None:
                n = len(held)
                held.difference_update(gone)
                held.add(first)
                if len(held) != n:
                    heapq.heappush(heap, (len(held), rank[other]))
    return list(live.values())


def reference_plan(m: ParameterisedModel, q, op_log: list | None = None):
    """``engine._plan`` with phase 2 grounding every factor whole, then the reference loop.

    Both phases multiply by the reference product routine, which lays out
    and adds its operands as the engine's does.
    """
    with mock.patch.object(engine, "_leaves", lambda *_: []), \
            mock.patch.object(engine, "_eliminate", _reference_eliminate), \
            mock.patch.object(engine, "_ground_product", _reference_product):
        return engine._plan(m, q, op_log)
