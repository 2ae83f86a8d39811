import pytest

from liftworlds import (
    Constant,
    ConstraintKind,
    DomainWorld,
    ParseError,
    ValidationError,
    evaluate_program,
    parse_program,
    uniformize,
)
from liftworlds.program import ConstraintWorld
from support import EXAMPLE_PROGRAM, T, X, epidemic_template, naive_datalog, ts


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
        assert worlds[0].constraints[2].kind is ConstraintKind.EMPTY

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

    def test_deterministic(self):
        tmpl = epidemic_template()
        prog = parse_program(EXAMPLE_PROGRAM)
        a = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        b = evaluate_program(prog, tmpl, people_world(*PEOPLE))
        assert a == b

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
        rel = _derive(by_pred, prog.rules)
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
            rel = _derive(by_pred, rules)
            got = {(p, t) for p, tuples in rel.items() for t in tuples}
            assert got == want


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
