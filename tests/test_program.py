import dataclasses
import re

import pytest

from liftworlds import (
    BetaBinomialDomain,
    Constant,
    Constraint,
    DomainSpec,
    DomainWorld,
    EnumeratedDomain,
    FixedDomain,
    Logvar,
    Parfactor,
    ParseError,
    PotentialTable,
    PRV,
    TemplateModel,
    UniverseModel,
    ValidationError,
    enumerate_worlds,
    evaluate_program,
    expand,
    io,
    parse_program,
    uniformize,
)
from liftworlds import program
from liftworlds.model import _listed
from liftworlds.program import ConstraintWorld
from support import (
    EXAMPLE_PROGRAM,
    T,
    X,
    decompose,
    epidemic_template,
    full_evaluate,
    naive_datalog,
    ts,
    xs,
)


def people_world(*names):
    return DomainWorld({X: tuple(Constant(n) for n in names), T: tuple(ts(3))})


PEOPLE = ("alice", "bob", "eve")


class TestParse:
    def test_example_program_shape(self):
        prog = parse_program(EXAMPLE_PROGRAM)
        assert len(prog.rules) == 3
        assert len(prog.choice_groups) == 1
        group = prog.choice_groups[0]
        assert group.predicate == "pair"
        assert len(group.facts) == 3
        assert group.probs == (0.7, 0.2, 0.1)
        assert len(prog.bindings) == 3
        assert prog.populate == (("X", "instance_of_X"),)

    def test_top_only_program(self):
        prog = parse_program("constraint g0 <- top.\nconstraint g1 <- top.")
        assert all(b.atom is None for b in prog.bindings)

    def test_self_recursion_rejected(self):
        with pytest.raises(ParseError, match="recursive"):
            parse_program("p(X) :- p(X).")

    def test_mutual_recursion_rejected(self):
        with pytest.raises(ParseError, match="recursive"):
            parse_program("p(X) :- q(X).\nq(X) :- p(X).")

    def test_choice_probabilities_must_sum_to_one(self):
        with pytest.raises(ParseError, match="sum"):
            parse_program("0.7 pair(t1,t2).\n0.2 pair(t2,t3).")

    def test_empty_term_rejected(self):
        with pytest.raises(ParseError, match="empty term") as err:
            parse_program("p(a).\nq(a,).")
        assert err.value.line == 2

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError, match="malformed atom 'Q\\(a\\)'"):
            parse_program("Q(a).")

    def test_rules_run_after_the_rules_they_read(self):
        prog = parse_program("c(X) :- b(X).\nb(X) :- a(X).\nd(X) :- c(X) & b(X).\nb(X) :- e(X).")
        assert [str(r) for r in program._rule_order(prog.rules)] == [
            "b(X) :- a(X).",
            "b(X) :- e(X).",
            "c(X) :- b(X).",
            "d(X) :- c(X) & b(X).",
        ]

    def test_unsafe_rule_rejected(self):
        with pytest.raises(ParseError, match="unsafe"):
            parse_program("p(X,Y) :- q(X).")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(a).\nq(b.\nr(c).")
        assert err.value.line == 2

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="terminating"):
            parse_program("p(a).\nq(b)")

    def test_comments_and_multiline_statements(self):
        prog = parse_program(
            "% header\nlinked(X,Y) :- a(X)\n    & b(Y). % trailing\na(c1). b(c2)."
        )
        assert len(prog.rules) == 1
        assert len(prog.facts) == 2

    def test_plain_and_probabilistic_facts_cannot_mix(self):
        with pytest.raises(ParseError, match="mixes"):
            parse_program("pair(t1,t2).\n0.5 pair(t2,t3).\n0.5 pair(t1,t3).")

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError, match="ground"):
            parse_program("p(X).")

    def test_duplicate_binding_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_program("constraint g0 <- top.\nconstraint g0 <- top.")

    def test_binding_needs_distinct_variables(self):
        with pytest.raises(ParseError, match="distinct"):
            parse_program("constraint g2 <- p(A,A).")


class TestEvaluate:
    def test_example_program_three_worlds(self):
        tmpl = epidemic_template()
        worlds = evaluate_program(parse_program(EXAMPLE_PROGRAM), tmpl, people_world(*PEOPLE))
        assert len(worlds) == 3
        assert [w.prob for w in worlds] == [0.7, 0.2, 0.1]
        t1, t2, t3 = ts(3)
        people = [Constant(p) for p in PEOPLE]
        for w in worlds:
            assert w.constraints[0].tuples == ((),)
            assert w.constraints[1].tuples == tuple((p,) for p in people)
        expected_pairs = [(t1, t2), (t2, t3), (t1, t3)]
        for w, (ta, tb) in zip(worlds, expected_pairs):
            want = tuple(sorted((p, t) for p in people for t in (ta, tb)))
            assert w.constraints[2].tuples == want

    def test_top_bindings_give_one_cartesian_world(self):
        tmpl = epidemic_template()
        prog = parse_program(
            "constraint g0 <- top.\nconstraint g1 <- top.\nconstraint g2 <- top."
        )
        worlds = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        assert len(worlds) == 1
        assert worlds[0].prob == 1.0
        assert worlds[0].constraints[2].size == 9  # 3 people x 3 treatments

    def test_independent_groups_multiply(self):
        tmpl = epidemic_template()
        prog = parse_program(
            """
            0.6 pick(a). 0.4 pick(b).
            0.5 other(u). 0.3 other(v). 0.2 other(w).
            chosen(X,Y) :- instance_of_X(X) & pick(Y).
            populate instance_of_X/1 from X.
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- chosen(X,Y).
            """
        )
        worlds = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        assert len(worlds) == 6
        want = sorted(
            (round(a * b, 12) for a in (0.6, 0.4) for b in (0.5, 0.3, 0.2)), reverse=True
        )
        assert [round(w.prob, 12) for w in worlds] == want
        assert abs(sum(w.prob for w in worlds) - 1.0) < 1e-9

    def test_no_choices_single_world(self):
        tmpl = epidemic_template()
        prog = parse_program(
            """
            treated(X,Y) :- instance_of_X(X) & kind(Y).
            kind(t1). kind(t2).
            populate instance_of_X/1 from X.
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- treated(X,Y).
            """
        )
        worlds = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        assert len(worlds) == 1 and worlds[0].prob == 1.0

    def test_empty_answers_flagged_degenerate(self):
        tmpl = epidemic_template()
        prog = parse_program(
            """
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- never(X,Y).
            populate instance_of_X/1 from X.
            """
        )
        worlds = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        assert worlds[0].degenerate
        assert not worlds[0].constraints[2].tuples

    def test_missing_binding_rejected(self):
        tmpl = epidemic_template()
        prog = parse_program("constraint g0 <- top.\nconstraint g1 <- top.")
        with pytest.raises(ValidationError, match="no binding"):
            evaluate_program(prog, tmpl, people_world(*PEOPLE))

    def test_missing_domain_rejected(self):
        tmpl = epidemic_template()
        prog = parse_program(
            "constraint g0 <- top.\nconstraint g1 <- top.\nconstraint g2 <- top."
        )
        dw = DomainWorld({X: tuple(Constant(p) for p in PEOPLE)})
        with pytest.raises(ValidationError, match="missing domain"):
            evaluate_program(prog, tmpl, dw)

    def test_binding_arity_mismatch_rejected(self):
        tmpl = epidemic_template()
        prog = parse_program(
            """
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- instance_of_X(X).
            populate instance_of_X/1 from X.
            """
        )
        with pytest.raises(ValidationError, match="arity"):
            evaluate_program(prog, tmpl, people_world(*PEOPLE))

    def test_hand_built_unsafe_rule_rejected(self):
        # parse refuses it with a line and column; a rule built by hand is
        # refused when it is made
        with pytest.raises(ValidationError, match="unsafe"):
            program.Rule(program.Atom("p", ("X", "Y")), (program.Atom("q", ("X",)),))

    def test_hand_built_recursive_program_rejected(self):
        # parse refuses recursion, so only a Program built by hand reaches
        # evaluate with a cycle, which the rule order refuses in turn
        prog = parse_program(
            """
            treated(X,Y) :- instance_of_X(X) & kind(Y).
            kind(t1).
            populate instance_of_X/1 from X.
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- treated(X,Y).
            """
        )
        loop = program.Rule(program.Atom("kind", ("Y",)), (program.Atom("treated", ("X", "Y")),))
        looped = dataclasses.replace(prog, rules=prog.rules + (loop,))
        with pytest.raises(ParseError, match="recursive predicate '(treated|kind)'"):
            evaluate_program(looped, epidemic_template(), people_world(*PEOPLE))

    def test_deterministic(self):
        tmpl = epidemic_template()
        prog = parse_program(EXAMPLE_PROGRAM)
        a = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        b = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        assert a == b

    def test_a_memo_serves_only_the_program_and_template_of_its_first_call(self, data_dir):
        tmpl, dw = io.load_model(data_dir / "model.json"), people_world(*PEOPLE)
        three = io.load_program(data_dir / "constraints.program")
        one = parse_program("constraint g0 <- top.\nconstraint g1 <- top.\nconstraint g2 <- top.")
        memo = program.EvaluationMemo()
        assert len(evaluate_program(three, tmpl, dw, memo)) == 3
        with pytest.raises(ValidationError, match="memo"):
            evaluate_program(one, tmpl, dw, memo)
        with pytest.raises(ValidationError, match="memo"):
            evaluate_program(three, io.load_model(data_dir / "model.json"), dw, memo)
        assert len(evaluate_program(three, tmpl, dw, memo)) == 3
        assert len(evaluate_program(one, tmpl, dw, program.EvaluationMemo())) == 1

    def test_constraint_list_length_matches_template(self):
        tmpl = epidemic_template()
        worlds = evaluate_program(parse_program(EXAMPLE_PROGRAM), tmpl, people_world(*PEOPLE))
        assert all(len(w.constraints) == len(tmpl.parfactors) for w in worlds)

    def test_bottom_up_matches_naive_enumeration(self):
        prog = parse_program(
            """
            path(X,Y) :- edge(X,Y).
            reach(X,Z) :- path(X,Y) & edge(Y,Z).
            both(X,Z) :- reach(X,Z) & blue(X).
            edge(a,b). edge(b,c). edge(c,d). blue(a). blue(b).
            constraint g0 <- top.
            """
        )
        base = {(a.predicate, a.terms) for a in prog.facts}
        want = naive_datalog(base, prog.rules)
        from liftworlds.program import _derive

        by_pred = {}
        for a in prog.facts:
            by_pred.setdefault(a.predicate, set()).add(a.terms)
        rel = _derive(by_pred, program._rule_order(prog.rules))
        got = {(p, t) for p, tuples in rel.items() for t in tuples}
        assert got == want

    def test_bottom_up_matches_naive_enumeration_randomized(self, rng):
        from liftworlds.program import _derive

        rules = parse_program(
            """
            hop(X,Y) :- edge(X,Y) & mark(X).
            two(X,Z) :- hop(X,Y) & edge(Y,Z).
            tri(X,Y,Z) :- hop(X,Y) & hop(Y,Z).
            loop(X) :- two(X,X).
            self(X) :- edge(X,X).
            from0(Y) :- edge(c0,Y).
            constraint g0 <- top.
            """
        ).rules
        constants = [f"c{i}" for i in range(5)]
        for _ in range(20):
            edges = {
                ("edge", (a, b))
                for a in constants
                for b in constants
                if rng.random() < 0.25
            }
            marks = {("mark", (c,)) for c in constants if rng.random() < 0.5}
            base_facts = edges | marks
            if not base_facts:
                continue
            want = naive_datalog(base_facts, rules)
            by_pred = {}
            for pred, terms in base_facts:
                by_pred.setdefault(pred, set()).add(terms)
            rel = _derive(by_pred, program._rule_order(rules))
            got = {(p, t) for p, tuples in rel.items() for t in tuples}
            assert got == want


Y = Logvar("Y")
Z = Logvar("Z")


def xy_template(three: bool = False) -> TemplateModel:
    """g0 over no logvar, g1 over X, g2 over (X, Y), g3 over Y, and with ``three`` g4 over (X, Y, Z)."""
    a, b, c, d = PRV("A"), PRV("B", (X,)), PRV("C", (X, Y)), PRV("D", (Y,))
    parfactors = [
        Parfactor(PotentialTable((a,), (1.0, 2.0)), Constraint.empty(())),
        Parfactor(PotentialTable((b,), (1.0, 2.0)), Constraint.empty((X,))),
        Parfactor(PotentialTable((c,), (1.0, 2.0)), Constraint.empty((X, Y))),
        Parfactor(PotentialTable((d,), (1.0, 2.0)), Constraint.empty((Y,))),
    ]
    if three:
        parfactors.append(Parfactor(PotentialTable((PRV("E", (X, Y, Z)),), (1.0, 2.0)), Constraint.empty((X, Y, Z))))
    return TemplateModel(tuple(parfactors), tuple(f"g{i}" for i in range(len(parfactors))))


def beta(guaranteed=(), bins=3) -> BetaBinomialDomain:
    named = tuple(map(Constant, guaranteed))
    return BetaBinomialDomain(2.0, 3.0, bins=bins, step=1, guaranteed=named)


def enumerated(*options) -> EnumeratedDomain:
    p = 1.0 / len(options)
    return EnumeratedDomain(tuple((tuple(map(Constant, cs)), p) for cs in options))


def check_against_oracle(text: str, spec: dict, monkeypatch) -> list:
    """Evaluate every world of ``spec`` with one shared memo, as ``expand``
    does, and compare each with the full-database oracle. Also checks that no
    tuple of a world lies in the blocks of two patterns, that every tuple of
    every constraint, a ``top`` binding's too, lies in some pattern's blocks,
    and that every constraint's blocks are, as a set, those ``decompose``
    gives for the oracle's tuples. A ``spec`` with a Z domain takes the
    template with g4. Returns the oracle's worlds."""
    prog, tmpl = parse_program(text), xy_template("Z" in spec)
    made: dict = {}  # pattern -> its blocks in the current world
    real = program._blocks

    def spy(pattern, pools):
        made[pattern] = real(pattern, pools)
        return made[pattern]

    monkeypatch.setattr(program, "_blocks", spy)
    memo = program.EvaluationMemo()
    seen = []
    for dw in enumerate_worlds(DomainSpec(spec), tmpl):
        made.clear()
        want = full_evaluate(prog, tmpl, dw)
        got = list(evaluate_program(prog, tmpl, dw, memo))
        assert got == want, (text, dw.domains)
        for w, ref in zip(got, want):
            for c, r in zip(w.constraints, ref.constraints):
                assert set(c.blocks) == set(decompose(r.tuples)), (text, dw.domains)
        every = [t for out in made.values() for t in _listed(out)]
        assert len(every) == len(set(every)), (text, dw.domains)
        assert {t for w in got for c in w.constraints for t in c.tuples} <= set(every), (text, dw.domains)
        seen.extend(want)
    return seen


DIRECTIVES = """
constraint g0 <- top.
populate p/1 from X.
populate q/1 from Y.
"""

# each case exercises one way a world's answers can depend on its constants
SHAPE_CASES = {
    "facts name guaranteed and enumerated constants": (
        "d0(A) :- p(A) & e(A,B). d1(A,B) :- p(A) & q(B) & e(A,c0). e(a,c0). e(x2,c0). e(y,a).",
        {"X": beta(("a",)), "Y": enumerated(("x1", "y"), ("y", "x2", "x3"))},
    ),
    "overlapping synthetic names": (
        "d0(A) :- p(A) & q(A). d1(A,B) :- p(A) & q(B). d3(B) :- q(B) & p(x2).",
        {"X": beta(), "Y": beta(bins=4)},
    ),
    "domain smaller than k": (
        "d0(A) :- p(A). d1(A,B) :- p(A) & p(B). d3(B) :- q(B).",
        {"X": beta(), "Y": beta(bins=1)},
    ),
    "repeated head variable": (
        "d0(A) :- p(A). d1(A,A) :- p(A) & q(A). d3(B) :- q(B).",
        {"X": beta(), "Y": beta()},
    ),
    "existential body variables": (
        "d0(A) :- p(A) & q(B). d1(A,B) :- p(A) & p(C) & q(B) & q(C). d3(B) :- e(B,C).  e(x1,c0).",
        {"X": beta(), "Y": beta()},
    ),
    "constants in heads and bodies": (
        "d0(x9) :- p(A). d1(A,x1) :- p(A). d1(c0,B) :- q(B). d3(B) :- q(B) & e(B,c0). e(x2,c0).",
        {"X": beta(), "Y": beta()},
    ),
    "empty answers": (
        "d0(A) :- p(A) & never(A). d1(A,B) :- p(A) & q(B). d3(B) :- q(B) & p(c0).",
        {"X": beta(), "Y": beta()},
    ),
    "one type at two and at three positions": (
        "populate p/1 from Z. d0(A) :- p(A). d1(A,B) :- p(A) & p(B). d3(B) :- q(B). "
        "d4(A,B,C) :- p(A) & p(B) & p(C). d4(A,B,A) :- q(A) & p(B).",
        {"X": beta(), "Y": beta(), "Z": beta(bins=2)},
    ),
    "a repeat beside another representative of its type": (
        "populate p/1 from Z. d0(A) :- p(A). d1(A,B) :- p(A) & q(B). d3(B) :- q(B). d4(A,B,A) :- p(A) & p(B).",
        {"X": beta(), "Y": beta(), "Z": beta(bins=2)},
    ),
    "top over domains that share a named constant and a type": (
        "d0(A) :- p(A). d3(B) :- q(B). e(a,c0). constraint g2 <- top. constraint g4 <- top.",
        {"X": beta(("a",)), "Y": enumerated(("a", "x1", "y"), ("y", "x2", "x3")), "Z": beta(bins=2)},
    ),
    "two choice groups": (
        "0.6 f(x1). 0.4 f(c0). 0.5 h(a,x2). 0.5 h(c0,c0). d0(A) :- p(A) & f(A). "
        "d1(A,B) :- h(A,B). d1(A,B) :- p(A) & q(B) & f(B). d3(B) :- q(B).",
        {"X": beta(("a",)), "Y": beta()},
    ),
}


def _case_program(rules: str, three: bool = False) -> str:
    """The rules with the shared directives and a binding of each parfactor the rules leave unbound."""
    heads = {"g1": "d0(X)", "g2": "d1(X,Y)", "g3": "d3(Y)", **({"g4": "d4(X,Y,Z)"} if three else {})}
    bound = set(re.findall(r"constraint (g\d)", rules))
    return rules + DIRECTIVES + "".join(f"constraint {g} <- {a}.\n" for g, a in heads.items() if g not in bound)


CONSTANTS = ("a", "x1", "y", "c0")
ARITY = {"p": 1, "q": 1, "e": 2, "f": 1, "h": 2, "d0": 1, "d1": 2, "d2": 2, "d3": 1}
CHOICE_PROBS = {1: (1.0,), 2: (0.6, 0.4), 3: (0.5, 0.3, 0.2)}


def random_case(rng) -> tuple[str, dict]:
    """A random program over p/q (populated), e (facts), f/h (choices), d0..d3."""

    def pick(pool) -> str:
        return str(rng.choice(pool))

    def term(variables) -> str:
        return pick(CONSTANTS) if rng.random() < 0.15 or not variables else pick(variables)

    def atom(pred: str, variables) -> str:
        return f"{pred}({','.join(term(variables) for _ in range(ARITY[pred]))})"

    lines = [atom("e", ()) + "." for _ in range(rng.integers(0, 4))]
    for pred in ("f", "h"):
        lines += [f"{p} {atom(pred, ())}." for p in CHOICE_PROBS.get(int(rng.integers(0, 4)), ())]
    derived = ("d0", "d1", "d2", "d3")
    for i, head in enumerate(derived):
        for _ in range(rng.integers(1, 3)):
            usable = ["p", "q", "p", "q", "e", "f", "h", *derived[:i]]
            body = [atom(pick(usable), ("A", "B", "C")) for _ in range(rng.integers(1, 4))]
            variables = sorted(set(re.findall(r"[A-Z]", "".join(body))))
            lines.append(f"{atom(head, variables)} :- {' & '.join(body)}.")
    kinds = (
        lambda: beta(("a",) if rng.random() < 0.3 else (), bins=4),
        lambda: beta(bins=int(rng.integers(1, 5))),
        lambda: enumerated(("x1", "y"), ("a", "x2", "x3", "x4")),
        lambda: FixedDomain(tuple(map(Constant, ("x1", "x3", "x4", "c0")))),
    )
    spec = {"X": kinds[rng.integers(0, 3)](), "Y": kinds[rng.integers(0, 4)]()}
    return "\n".join(lines) + "\n", spec


class TestWorldShapes:
    @pytest.mark.parametrize("name", SHAPE_CASES)
    def test_case_matches_full_database(self, name, monkeypatch):
        rules, spec = SHAPE_CASES[name]
        worlds = check_against_oracle(_case_program(rules, "Z" in spec), spec, monkeypatch)
        if name == "empty answers":
            assert any(w.degenerate for w in worlds)

    def test_randomized_programs_match_full_database(self, rng, monkeypatch):
        degenerate = exact = 0
        for _ in range(300):
            text, spec = random_case(rng)
            worlds = check_against_oracle(_case_program(text), spec, monkeypatch)
            degenerate += any(w.degenerate for w in worlds)
            exact += any(not w.degenerate for w in worlds)
        assert degenerate and exact

    def test_bundled_triple_runs_rules_once_per_choice(self, data_dir, monkeypatch):
        calls = []
        real = program._derive
        monkeypatch.setattr(program, "_derive", lambda *a: calls.append(1) or real(*a))
        u = UniverseModel(
            io.load_model(data_dir / "model.json"),
            io.load_program(data_dir / "constraints.program"),
            io.load_domain_spec(data_dir / "domains.json"),
        )
        assert len(expand(u)) == 60
        assert len(calls) == 3

    def test_bundled_triple_orders_its_rules_once_per_world_shape(self, data_dir, monkeypatch):
        # once when the program is parsed, and once when it is checked
        # against the template, not once per shape or choice combination
        calls = []
        real = program._rule_order
        monkeypatch.setattr(program, "_rule_order", lambda rules: calls.append(1) or real(rules))
        u = UniverseModel(
            io.load_model(data_dir / "model.json"),
            io.load_program(data_dir / "constraints.program"),
            io.load_domain_spec(data_dir / "domains.json"),
        )
        assert len(expand(u)) == 60
        assert len(calls) == 2

    def test_rules_are_ordered_once_per_expansion_of_many_world_shapes(self, monkeypatch):
        # second(x3) splits the worlds into two shapes: X holds x3 or not
        prog = parse_program("""
            treated(X,t1) :- instance_of_X(X).
            treated(X,t2) :- instance_of_X(X) & second(X).
            second(x3).
            populate instance_of_X/1 from X.
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- treated(X,T).
        """)
        spec = DomainSpec({
            "X": EnumeratedDomain(tuple((tuple(xs(n)), p) for n, p in ((2, 0.2), (3, 0.3), (5, 0.5)))),
            "T": FixedDomain(tuple(ts(2))),
        })
        orders, runs = [], []
        real_order, real_derive = program._rule_order, program._derive
        monkeypatch.setattr(program, "_rule_order", lambda rules: orders.append(1) or real_order(rules))
        monkeypatch.setattr(program, "_derive", lambda *a: runs.append(1) or real_derive(*a))
        assert len(expand(UniverseModel(epidemic_template(), prog, spec))) == 3
        assert (len(orders), len(runs)) == (1, 2)

    def test_named_persons_that_differ_per_world_run_once_per_world(self, monkeypatch):
        calls = []
        real = program._derive
        monkeypatch.setattr(program, "_derive", lambda *a: calls.append(1) or real(*a))
        text = """
            treated(X,t1) :- instance_of_X(X).
            treated(X,t2) :- instance_of_X(X) & second(X).
            second(x2). second(x6). second(x10).
            populate instance_of_X/1 from X.
            constraint g0 <- top.
            constraint g1 <- instance_of_X(X).
            constraint g2 <- treated(X,T).
        """
        people = [[f"x{i}" for i in range(1, n + 1)] for n in (4, 8, 12)]
        spec = DomainSpec({
            "X": EnumeratedDomain(tuple((tuple(map(Constant, p)), 1 / 3) for p in people)),
            "T": FixedDomain(tuple(ts(2))),
        })
        models = expand(UniverseModel(epidemic_template(), parse_program(text), spec))
        assert len(models) == 3
        assert len(calls) == 3
        for wm in models:
            g2 = wm.model.parfactors[2].constraint
            assert sum(1 for _, t in g2.tuples if t == "t2") == len(
                {"x2", "x6", "x10"} & {x for x, _ in g2.tuples}
            )

    def test_module_holds_no_mutable_containers(self):
        mutable = [
            name
            for name, value in vars(program).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set, bytearray))
        ]
        assert mutable == []


class TestUniformize:
    def test_three_worlds(self):
        worlds = [ConstraintWorld((), None) for _ in range(3)]
        out = uniformize(worlds)
        assert [w.prob for w in out] == [1 / 3] * 3

    def test_single_world(self):
        out = uniformize([ConstraintWorld((), None)])
        assert out[0].prob == 1.0

    def test_mass_sums_to_one(self):
        for m in (2, 5, 9):
            out = uniformize([ConstraintWorld((), None) for _ in range(m)])
            assert abs(sum(w.prob for w in out) - 1.0) < 1e-9

    def test_weighted_worlds_rejected(self):
        with pytest.raises(ValidationError):
            uniformize([ConstraintWorld((), 0.5)])
