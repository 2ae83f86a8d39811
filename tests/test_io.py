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
        with pytest.raises(ParseError):
            parse_event("Sick(x1)")
