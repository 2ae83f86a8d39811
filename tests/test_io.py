import numpy as np
import pytest

from liftworlds import (
    BetaBinomialDomain,
    Constant,
    EnumeratedDomain,
    FixedDomain,
    GroundAtom,
    ParameterisedModel,
    ParseError,
    TemplateModel,
    ValidationError,
    load_domain_spec,
    load_model,
    parse_domain_spec,
    parse_event,
    parse_model,
    parse_query,
)


def atom(name, *args):
    return GroundAtom(name, tuple(Constant(a) for a in args))


class TestModelFile:
    def test_bundled_template(self, data_dir):
        tmpl = load_model(data_dir / "model.json")
        assert isinstance(tmpl, TemplateModel)
        assert tmpl.names == ("g0", "g1", "g2")
        assert [lv.name for lv in tmpl.logvars] == ["X", "T"]
        assert all(not p.constraint.tuples for p in tmpl.parfactors)
        assert tmpl.parfactors[1].table.values.tolist() == [2, 1, 3, 4, 3, 4, 3, 1]

    def test_explicit_tuples_load_as_parameterised(self):
        doc = {
            "randvars": [{"name": "Sick", "arity": 1}],
            "logvars": ["X"],
            "parfactors": [
                {
                    "args": [["Sick", "X"]],
                    "values": [1, 2],
                    "constraint": {"logvars": ["X"], "tuples": [["a"], ["b"]]},
                }
            ],
        }
        model = parse_model(doc)
        assert isinstance(model, ParameterisedModel)
        assert model.parfactors[0].constraint.size == 2

    def test_non_string_constant_rejected(self):
        doc = {
            "randvars": [{"name": "Sick", "arity": 1}],
            "logvars": ["X"],
            "parfactors": [
                {
                    "args": [["Sick", "X"]],
                    "values": [1, 2],
                    "constraint": {"logvars": ["X"], "tuples": [[1], ["a"]]},
                }
            ],
        }
        with pytest.raises(ValidationError, match="non-empty strings"):
            parse_model(doc)

    def test_top_constraint_loads(self):
        doc = {
            "randvars": [{"name": "Sick", "arity": 1}],
            "logvars": ["X"],
            "parfactors": [
                {"name": "g1", "args": [["Sick", "X"]], "values": [1, 2], "constraint": "top"}
            ],
        }
        with pytest.raises(ParseError, match=r"'constraint g1 <- top\.'"):
            parse_model(doc)

    def test_mixed_constraints_rejected(self):
        doc = {
            "randvars": [{"name": "Sick", "arity": 1}],
            "logvars": ["X"],
            "parfactors": [
                {"args": [["Sick", "X"]], "values": [1, 2], "constraint": "empty"},
                {
                    "args": [["Sick", "X"]],
                    "values": [1, 2],
                    "constraint": {"logvars": ["X"], "tuples": [["a"]]},
                },
            ],
        }
        with pytest.raises(ValidationError, match="mixes"):
            parse_model(doc)

    def test_unknown_randvar_rejected(self):
        doc = {
            "randvars": [],
            "logvars": [],
            "parfactors": [{"args": [["Ghost"]], "values": [1, 1], "constraint": "empty"}],
        }
        with pytest.raises(ParseError, match="unknown randvar"):
            parse_model(doc)

    def test_arity_mismatch_rejected(self):
        doc = {
            "randvars": [{"name": "Sick", "arity": 1}],
            "logvars": ["X"],
            "parfactors": [{"args": [["Sick"]], "values": [1, 1], "constraint": "empty"}],
        }
        with pytest.raises(ParseError, match="arity"):
            parse_model(doc)

    def test_wrong_container_types_are_parse_errors(self):
        sick = {"name": "Sick", "arity": 1}
        pf = {"args": [["Sick", "X"]], "values": [1, 2], "constraint": "empty"}
        bad = [
            3,
            {"randvars": 3, "parfactors": []},
            {"randvars": [3], "parfactors": []},
            {"randvars": [sick], "logvars": "X", "parfactors": [pf]},
            {"randvars": [sick], "logvars": ["X"], "parfactors": {"g1": pf}},
            {"randvars": [sick], "logvars": ["X"], "parfactors": [3]},
            {"randvars": [sick], "logvars": ["X"], "parfactors": [{**pf, "args": ["Sick"]}]},
        ]
        for doc in bad:
            with pytest.raises(ParseError, match="expected"):
                parse_model(doc)

    def test_arity_must_be_an_integer(self):
        for arity in ("one", 1.5, True):
            doc = {"randvars": [{"name": "Sick", "arity": arity}], "parfactors": []}
            with pytest.raises(ParseError, match="randvar Sick: 'arity': expected an integer"):
                parse_model(doc)

    def test_a_list_in_a_logvar_slot_is_a_parse_error(self):
        doc = {
            "randvars": [{"name": "Sick", "arity": 1}],
            "logvars": ["X"],
            "parfactors": [{"args": [["Sick", ["X"]]], "values": [1, 2], "constraint": "empty"}],
        }
        with pytest.raises(ParseError, match=r"parfactor g0: logvar: expected a name, got \['X'\]"):
            parse_model(doc)

    def test_unknown_constraint_logvar_rejected(self):
        doc = {
            "randvars": [{"name": "Sick", "arity": 1}],
            "logvars": ["X"],
            "parfactors": [
                {
                    "args": [["Sick", "X"]],
                    "values": [1, 2],
                    "constraint": {"logvars": ["Y"], "tuples": [["a"]]},
                }
            ],
        }
        with pytest.raises(ParseError, match="unknown logvar 'Y'"):
            parse_model(doc)

    def test_wrong_value_count_rejected(self):
        doc = {
            "randvars": [{"name": "Epid", "arity": 0}],
            "logvars": [],
            "parfactors": [{"args": [["Epid"]], "values": [1, 2, 3], "constraint": "empty"}],
        }
        with pytest.raises(ValidationError):
            parse_model(doc)

    def test_empty_range_value_rejected(self):
        doc = {
            "randvars": [{"name": "Level", "arity": 0, "range": ["", "on"]}],
            "logvars": [],
            "parfactors": [{"args": [["Level"]], "values": [1, 2], "constraint": "empty"}],
        }
        with pytest.raises(ValidationError, match="must not be empty"):
            parse_model(doc)

    def test_custom_range(self):
        doc = {
            "randvars": [{"name": "Level", "arity": 0, "range": ["low", "mid", "high"]}],
            "logvars": [],
            "parfactors": [{"args": [["Level"]], "values": [1, 2, 3], "constraint": "empty"}],
        }
        tmpl = parse_model(doc)
        assert list(tmpl.parfactors[0].table.args[0].range) == ["low", "mid", "high"]

    def test_random_values_follow_the_seed(self):
        doc = {
            "randvars": [{"name": "Epid", "arity": 0}],
            "logvars": [],
            "parfactors": [{"args": [["Epid"]], "values": "random", "constraint": "empty"}],
        }
        a = parse_model(doc, seed=7).parfactors[0].table.values
        b = parse_model(doc, seed=7).parfactors[0].table.values
        c = parse_model(doc, seed=8).parfactors[0].table.values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_malformed_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(path)


class TestDomainSpecFile:
    def test_bundled_spec(self, data_dir):
        spec = load_domain_spec(data_dir / "domains.json")
        assert isinstance(spec.entries["X"], BetaBinomialDomain)
        assert isinstance(spec.entries["T"], FixedDomain)
        assert spec.entries["X"].bins == 20 and spec.entries["X"].step == 100
        assert spec.varying() == ("X",)

    def test_enumerated_worlds(self):
        spec = parse_domain_spec(
            {"Y": {"worlds": [{"constants": ["a"], "prob": 0.4}, {"constants": ["a", "b"], "prob": 0.6}]}}
        )
        entry = spec.entries["Y"]
        assert isinstance(entry, EnumeratedDomain) and entry.weighted

    def test_unknown_shape_rejected(self):
        with pytest.raises(ParseError):
            parse_domain_spec({"X": {"size": 3}})

    def test_wrong_container_types_are_parse_errors(self):
        bad = [
            ["X"],
            {"X": 3},
            {"X": {"constants": "ab"}},
            {"X": {"worlds": {"constants": ["a"]}}},
            {"X": {"worlds": [["a"]]}},
            {"X": {"alpha": 6, "beta": 15, "bins": 2, "step": 1, "guaranteed": "a"}},
        ]
        for doc in bad:
            with pytest.raises(ParseError, match="expected"):
                parse_domain_spec(doc)

    def test_alpha_must_be_a_number(self):
        with pytest.raises(ParseError, match="domain X: 'alpha': expected a number, got 'six'"):
            parse_domain_spec({"X": {"alpha": "six", "beta": 15, "bins": 2, "step": 1}})

    def test_enumerated_prob_must_be_a_number(self):
        doc = {"X": {"worlds": [{"constants": ["a"], "prob": "half"}, {"constants": ["b"], "prob": 0.5}]}}
        with pytest.raises(ParseError, match="domain X: 'prob': expected a number, got 'half'"):
            parse_domain_spec(doc)

    def test_bins_and_step_must_be_integers(self):
        # a fractional bin count was truncated before; a bool is not a count
        for field, value in (("bins", 2.5), ("bins", True), ("step", "2"), ("step", 1.5)):
            raw = {"alpha": 6, "beta": 15, "bins": 2, "step": 1, field: value}
            with pytest.raises(ParseError, match=f"domain X: '{field}': expected an integer"):
                parse_domain_spec({"X": raw})
        spec = parse_domain_spec({"X": {"alpha": 6, "beta": 15, "bins": 2.0, "step": 3}})
        assert spec.entries["X"].bins == 2 and type(spec.entries["X"].bins) is int

    def test_beta_binomial_requires_bins_and_step(self):
        with pytest.raises(ParseError):
            parse_domain_spec({"X": {"alpha": 6, "beta": 15}})


class TestQueryStrings:
    def test_single_target(self):
        q = parse_query("P(Sick(x1))")
        assert q.targets == (atom("Sick", "x1"),)
        assert len(q.evidence) == 0

    def test_evidence(self):
        q = parse_query("P(Epid | Sick(x1)=true, Travel(x2)=false)")
        assert q.targets == (atom("Epid"),)
        observed = dict(q.evidence.assignments)
        assert observed[atom("Sick", "x1")] == "true"
        assert observed[atom("Travel", "x2")] == "false"

    def test_multiple_targets(self):
        q = parse_query("P(Sick(x1), Sick(x2))")
        assert len(q.targets) == 2

    def test_atoms_of_several_constants(self):
        q = parse_query("P(Treat(x1,t1))")
        assert q.targets == (atom("Treat", "x1", "t1"),)
        q = parse_query("P(Sick(x1) | Treat(x1,t1)=true, Travel(x2)=false)")
        assert q.targets == (atom("Sick", "x1"),)
        assert dict(q.evidence.assignments) == {
            atom("Treat", "x1", "t1"): "true",
            atom("Travel", "x2"): "false",
        }
        q = parse_query("P(Treat(x1, t1), Sick(x2) | Epid=true)")
        assert q.targets == (atom("Treat", "x1", "t1"), atom("Sick", "x2"))

    def test_empty_term_is_a_parse_error(self):
        for text in ("P(Sick(x1,))", "P(Treat(x1, ,t1))", "P(Epid | Sick(,x1)=true)"):
            with pytest.raises(ParseError, match="empty term"):
                parse_query(text)

    def test_whitespace_tolerated(self):
        q = parse_query("  P( Epid |  Sick( x1 ) = true )  ")
        assert dict(q.evidence.assignments)[atom("Sick", "x1")] == "true"

    def test_empty_target_rejected(self):
        with pytest.raises(ParseError):
            parse_query("P()")

    def test_missing_wrapper_rejected(self):
        with pytest.raises(ParseError):
            parse_query("Sick(x1)")

    def test_bad_evidence_rejected(self):
        with pytest.raises(ParseError):
            parse_query("P(Epid | Sick(x1))")

    def test_event_parsing(self):
        a, v = parse_event("Sick(x1)=true")
        assert a == atom("Sick", "x1") and v == "true"
        a, v = parse_event("Treat(x1,t1)=true")
        assert a == atom("Treat", "x1", "t1") and v == "true"
        with pytest.raises(ParseError):
            parse_event("Sick(x1)")

    def test_an_empty_value_is_a_parse_error_naming_the_atom(self):
        for parse, text in (
            (parse_event, "Sick(x1)="),
            (parse_event, "Sick(x1)=  "),
            (parse_query, "P(Sick(x1)|Travel(x2)=)"),
            (parse_query, "P(Epid | Sick(x1)=true, Travel(x2)= )"),
        ):
            with pytest.raises(ParseError, match=r"has no value") as raised:
                parse(text)
            assert "Sick(x1)" in str(raised.value) or "Travel(x2)" in str(raised.value)
