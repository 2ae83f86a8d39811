import re
from pathlib import Path

import numpy as np
import pytest

import liftworlds
from liftworlds import (
    Constant,
    Constraint,
    GroundAtom,
    Logvar,
    NotCountNormalized,
    Parfactor,
    ParameterisedModel,
    PotentialTable,
    PRV,
    Range,
    TemplateModel,
    ValidationError,
)
from liftworlds.model import _flat_index, conditional_count, project
from support import EPID, SICK, TRAVEL, TREAT, T, X, epidemic_model, ts, xs


def c2(dx, dt):
    return Constraint.extensional((X, T), [(x, t) for x in xs(dx) for t in ts(dt)])


def c1(dx):
    return Constraint.extensional((X,), [(x,) for x in xs(dx)])


def ground(p):
    return ParameterisedModel((p,)).ground()


class TestGround:
    def test_one_factor_per_person(self):
        g1 = Parfactor(PotentialTable((EPID, SICK, TRAVEL), np.arange(1, 9)), c1(3))
        factors = ground(g1)
        assert len(factors) == 3
        assert all(f.table is g1.table for f in factors)
        names = sorted(str(f.atoms[1]) for f in factors)
        assert names == ["Sick(x1)", "Sick(x2)", "Sick(x3)"]

    def test_parameterless_parfactor_grounds_once(self):
        g0 = Parfactor(PotentialTable((EPID,), [3, 1]), Constraint.extensional((), [()]))
        factors = ground(g0)
        assert len(factors) == 1
        assert factors[0].atoms == (GroundAtom("Epid"),)

    def test_cartesian_count(self):
        g2 = Parfactor(PotentialTable((EPID, SICK, TREAT), np.arange(1, 9)), c2(3, 2))
        assert len(ground(g2)) == 6

    def test_ground_count_matches_tuple_count(self, rng):
        for _ in range(25):
            dx, dt = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            keep = [
                (x, t)
                for x in xs(dx)
                for t in ts(dt)
                if rng.random() < 0.7
            ] or [(xs(dx)[0], ts(dt)[0])]
            c = Constraint.extensional((X, T), keep)
            g = Parfactor(PotentialTable((EPID, SICK, TREAT), np.arange(1, 9)), c)
            assert len(ground(g)) == c.size


class TestProject:
    def test_restriction_to_persons(self):
        assert project(c2(3, 2), (X,)) == c1(3)

    def test_identity(self):
        c = c2(3, 2)
        assert project(c, (X, T)) == c

    def test_onto_nothing_gives_one_empty_tuple(self):
        p = project(c2(3, 2), ())
        assert p.tuples == ((),)

    def test_idempotent(self, rng):
        for _ in range(25):
            keep = [(x, t) for x in xs(3) for t in ts(3) if rng.random() < 0.6]
            keep = keep or [(xs(3)[0], ts(3)[0])]
            c = Constraint.extensional((X, T), keep)
            once = project(c, (X,))
            assert project(once, (X,)) == once

    def test_requires_subset(self):
        with pytest.raises(ValidationError):
            project(c1(3), (T,))

    def test_empty_constraint_has_no_projection_or_count(self):
        c = Constraint.empty((X, T))
        with pytest.raises(ValidationError, match="at least one tuple"):
            project(c, (X,))
        with pytest.raises(ValidationError, match="not in constraint"):
            project(c, (Logvar("Y"),))
        with pytest.raises(NotCountNormalized, match="has no tuples"):
            conditional_count(c, (T,))


class TestConditionalCount:
    def test_cartesian_treatments(self):
        assert conditional_count(c2(3, 2), (T,)) == 2

    def test_ragged_rejected(self):
        a, b = xs(2)
        t1, t2 = ts(2)
        c = Constraint.extensional((X, T), [(a, t1), (a, t2), (b, t1)])
        with pytest.raises(NotCountNormalized):
            conditional_count(c, (T,))

    def test_eliminating_nothing(self):
        assert conditional_count(c2(3, 2), ()) == 1

    def test_count_times_projection_is_size(self, rng):
        for _ in range(25):
            dx, dt = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            c = c2(dx, dt)
            n = conditional_count(c, (T,))
            assert n * project(c, (X,)).size == c.size


class TestPotentialTable:
    def test_last_argument_varies_fastest(self):
        ranges = tuple(a.range for a in (EPID, SICK, TRAVEL))
        assert _flat_index(ranges, ("false", "false", "true"), "arguments") == 1
        assert _flat_index(ranges, ("true", "false", "false"), "arguments") == 4

    def test_rejects_wrong_length_and_negatives(self):
        with pytest.raises(ValidationError):
            PotentialTable((EPID,), [1, 2, 3])
        with pytest.raises(ValidationError):
            PotentialTable((EPID,), [1, -2])
        with pytest.raises(ValidationError):
            PotentialTable((EPID,), [1, float("nan")])
        with pytest.raises(ValidationError):
            PotentialTable((EPID,), [1, float("inf")])


class TestValidation:
    def test_parfactor_constraint_must_cover_arg_logvars(self):
        with pytest.raises(ValidationError):
            Parfactor(PotentialTable((EPID, SICK, TREAT), np.arange(1, 9)), c1(3))

    def test_range_needs_two_values(self):
        with pytest.raises(ValidationError):
            Range(("only",))

    def test_constraint_arity_checked(self):
        with pytest.raises(ValidationError):
            Constraint.extensional((X, T), [(Constant("a"),)])

    def test_width_mismatch_of_plain_strings_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"tuple \('a', 'b'\) does not match logvars \('X',\)"):
            Constraint.extensional((X,), [("a", "b")])

    def test_extensional_needs_tuples(self):
        with pytest.raises(ValidationError):
            Constraint.extensional((X,), [])

    def test_tuples_are_sorted_and_deduplicated(self):
        a, b = Constant("a"), Constant("b")
        c = Constraint.extensional((X,), [(b,), (a,), (b,)])
        assert c.tuples == ((a,), (b,))
        x2, x10 = Constant("x2"), Constant("x10")
        assert Constraint.extensional((X,), [(x2,), (x10,)]).tuples == ((x10,), (x2,))
        x1, t1, t2 = Constant("x1"), Constant("t1"), Constant("t2")
        pairs = Constraint.extensional((X, T), [(x1, t2), (x2, t1), (x1, t1)])
        assert pairs.tuples == ((x1, t1), (x1, t2), (x2, t1))

    def test_identifiers_behave_as_their_names(self):
        c, lv = Constant("x1"), Logvar("X")
        assert c == "x1" and hash(c) == hash("x1") and str(c) == c.name == "x1"
        assert lv == "X" and hash(lv) == hash("X") and lv == Constant("X")
        assert Constant("a") < Constant("b")
        assert repr(c) == "Constant(name='x1')"
        assert repr(lv) == "Logvar(name='X')"
        for bad in (1, "", None):
            with pytest.raises(ValidationError, match="non-empty strings"):
                Constant(bad)

    def test_template_requires_empty_constraints(self):
        g = Parfactor(PotentialTable((EPID,), [1, 1]), Constraint.extensional((), [()]))
        with pytest.raises(ValidationError):
            TemplateModel((g,))

    def test_signature_consistency(self):
        sick_binary = PRV("Sick", (X, T))
        g1 = Parfactor(PotentialTable((SICK,), [1, 1]), Constraint.empty((X,)))
        g2 = Parfactor(PotentialTable((sick_binary,), [1, 1]), Constraint.empty((X, T)))
        with pytest.raises(ValidationError, match="inconsistent"):
            TemplateModel((g1, g2))

    def test_contains_atom(self):
        from liftworlds import GroundAtom

        m = epidemic_model(2, 2)
        assert m.contains_atom(GroundAtom("Sick", (Constant("x2"),)))
        assert not m.contains_atom(GroundAtom("Sick", (Constant("x9"),)))
        assert m.contains_atom(GroundAtom("Epid"))
        assert not m.contains_atom(GroundAtom("Cough", (Constant("x1"),)))


def test_only_model_reads_a_constraints_tuples_or_blocks():
    # the rest of the package goes through model.py's operations, so the
    # block form can change without touching it
    readers = {
        path.name: sorted(set(re.findall(r"\.(?:tuples|blocks)\b", path.read_text())))
        for path in Path(liftworlds.__file__).parent.glob("*.py")
        if path.name != "model.py"
    }
    assert len(readers) > 5
    assert {name: found for name, found in readers.items() if found} == {}
