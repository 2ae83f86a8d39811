import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from liftworlds import beta_binomial_pmf, ground_ve, parse_query
from liftworlds.cli import main
from liftworlds.io import load_model
from support import brute_force_skyline

TOP_PROGRAM = "constraint g0 <- top.\nconstraint g1 <- top.\nconstraint g2 <- top.\n"

SMALL_MODEL = {
    "randvars": [
        {"name": "Epid", "arity": 0},
        {"name": "Sick", "arity": 1},
        {"name": "Travel", "arity": 1},
        {"name": "Treat", "arity": 2},
    ],
    "logvars": ["X", "T"],
    "parfactors": [
        {"name": "g0", "args": [["Epid"]], "values": [3, 1], "constraint": "empty"},
        {
            "name": "g1",
            "args": [["Epid"], ["Sick", "X"], ["Travel", "X"]],
            "values": [2, 1, 3, 4, 3, 4, 3, 1],
            "constraint": "empty",
        },
        {
            "name": "g2",
            "args": [["Epid"], ["Sick", "X"], ["Treat", "X", "T"]],
            "values": [1, 4, 2, 3, 2, 4, 4, 1],
            "constraint": "empty",
        },
    ],
}


def run(*args):
    return CliRunner().invoke(main, list(args))


def rows_of(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


def paper_args(data_dir, *extra):
    return (
        "--model", str(data_dir / "model.json"),
        "--program", str(data_dir / "constraints.program"),
        "--domains", str(data_dir / "domains.json"),
    ) + extra


@pytest.fixture
def small_universe(tmp_path):
    """Example-shaped universe over enumerated person counts 2..5."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(SMALL_MODEL))
    program = tmp_path / "top.program"
    program.write_text(TOP_PROGRAM)
    domains = tmp_path / "domains.json"
    domains.write_text(
        json.dumps(
            {
                "X": {
                    "worlds": [
                        {"constants": [f"x{i+1}" for i in range(s)], "prob": p}
                        for s, p in zip((2, 3, 4, 5), (0.1, 0.2, 0.3, 0.4))
                    ]
                },
                "T": {"constants": ["t1", "t2"]},
            }
        )
    )
    return ("--model", str(model), "--program", str(program), "--domains", str(domains))


class TestExpand:
    def test_paper_triple_cascade_manifest(self, data_dir):
        result = run("expand", *paper_args(data_dir, "--threshold", "0.05", "--cascade"))
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert len(rows) == 7
        assert list(rows[0]) == ["world_id", "size_X", "size_T", "constraint_world", "weight", "degenerate"]
        assert [r["size_X"] for r in rows] == ["200", "300", "400", "500", "600", "700", "800"]
        assert all(r["constraint_world"] == "0" for r in rows)

    def test_top_program_single_row(self, small_universe, tmp_path):
        domains = tmp_path / "fixed.json"
        domains.write_text(json.dumps({"X": {"constants": ["a", "b"]}, "T": {"constants": ["t1"]}}))
        args = small_universe[:4] + ("--domains", str(domains))
        result = run("expand", *args)
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert len(rows) == 1
        assert rows[0]["weight"] == "1"

    def test_missing_domain_is_input_error(self, small_universe, tmp_path):
        domains = tmp_path / "incomplete.json"
        domains.write_text(json.dumps({"X": {"constants": ["a"]}}))
        args = small_universe[:4] + ("--domains", str(domains))
        result = run("expand", *args)
        assert result.exit_code == 2
        assert "missing domain" in result.stderr

    def test_out_into_a_missing_directory_is_input_error(self, small_universe, tmp_path):
        result = run("expand", *small_universe, "--out", str(tmp_path / "missing" / "x.csv"))
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        last = result.stderr.splitlines()[-1]
        assert last.startswith("error: ") and "x.csv" in last

    def test_domain_file_that_is_a_list_is_input_error(self, small_universe, tmp_path):
        domains = tmp_path / "list.json"
        domains.write_text(json.dumps([{"X": {"constants": ["a"]}}]))
        result = run("expand", *small_universe[:4], "--domains", str(domains))
        assert result.exit_code == 2
        assert "expected an object" in result.stderr

    def test_malformed_number_is_input_error(self, small_universe, tmp_path):
        domains = tmp_path / "alpha.json"
        domains.write_text(json.dumps({"X": {"alpha": "six", "beta": 15, "bins": 2, "step": 1},
                                       "T": {"constants": ["t1"]}}))
        result = run("expand", *small_universe[:4], "--domains", str(domains))
        assert result.exit_code == 2
        assert "'alpha': expected a number" in result.stderr
        assert "Traceback" not in result.stderr

    def test_non_string_constant_is_input_error(self, small_universe, tmp_path):
        model = tmp_path / "mixed.json"
        parfactor = {
            "args": [["Sick", "X"]],
            "values": [1, 2],
            "constraint": {"logvars": ["X"], "tuples": [[1], ["a"]]},
        }
        model.write_text(
            json.dumps(
                {"randvars": [{"name": "Sick", "arity": 1}], "logvars": ["X"], "parfactors": [parfactor]}
            )
        )
        result = run("expand", "--model", str(model), *small_universe[2:])
        assert result.exit_code == 2
        assert "non-empty strings" in result.stderr

    def test_model_with_explicit_constraints_is_input_error(self, small_universe, tmp_path):
        model = tmp_path / "explicit.json"
        parfactor = {"args": [["Sick", "X"]], "values": [1, 2], "constraint": {"logvars": ["X"], "tuples": [["a"]]}}
        model.write_text(
            json.dumps({"randvars": [{"name": "Sick", "arity": 1}], "logvars": ["X"], "parfactors": [parfactor]})
        )
        result = run("expand", "--model", str(model), *small_universe[2:])
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1].startswith("error: the pipeline needs a template model")

    def test_cascade_without_threshold_is_input_error(self, small_universe):
        result = run("expand", *small_universe, "--cascade")
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == "error: --cascade needs --threshold"

    def test_json_matches_csv(self, small_universe):
        as_csv = run("expand", *small_universe)
        as_json = run("expand", *small_universe, "--format", "json")
        csv_rows = rows_of(as_csv.stdout)
        json_rows = json.loads(as_json.stdout)
        assert len(csv_rows) == len(json_rows) == 4
        for a, b in zip(csv_rows, json_rows):
            assert a["world_id"] == b["world_id"]
            assert float(a["weight"]) == pytest.approx(b["weight"], rel=1e-11)


class TestQuery:
    def test_paper_universe_answer_table(self, data_dir):
        result = run(
            "query",
            *paper_args(data_dir, "--threshold", "0.05", "--cascade"),
            "--query", "P(Sick(x1))",
        )
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert len(rows) == 7
        assert list(rows[0]) == ["world_id", "domain_size", "model_prob", "p_Sick(x1)=false", "p_Sick(x1)=true"]
        for row in rows:
            k = int(row["domain_size"]) // 100
            assert float(row["model_prob"]) == pytest.approx(
                0.7 * beta_binomial_pmf(k, 20, 6, 15), rel=1e-9
            )
            total = float(row["p_Sick(x1)=false"]) + float(row["p_Sick(x1)=true"])
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_conditional_query_matches_oracle(self, small_universe, tmp_path, data_dir):
        result = run("query", *small_universe, "--query", "P(Epid | Sick(x1)=true)")
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert len(rows) == 4
        model = load_model(tmp_path / "model.json")
        from liftworlds import UniverseModel, expand, load_domain_spec, load_program

        universe = UniverseModel(
            model, load_program(tmp_path / "top.program"), load_domain_spec(tmp_path / "domains.json")
        )
        q = parse_query("P(Epid | Sick(x1)=true)")
        for wm, row in zip(expand(universe), rows):
            want = ground_ve(wm.model, q)
            assert float(row["p_Epid=true"]) == pytest.approx(want.probs[1], abs=1e-9)

    @staticmethod
    def query_with_z(data_dir, tmp_path, z):
        """The bundled query, and the same query with ``z`` as the spec entry of a logvar Z no template has."""
        doc = json.loads((data_dir / "domains.json").read_text())
        doc["Z"] = z
        domains = tmp_path / "domains.json"
        domains.write_text(json.dumps(doc))
        bundled = run("query", *paper_args(data_dir), "--query", "P(Sick(x1))")
        extra = run("query", *paper_args(data_dir)[:4], "--domains", str(domains), "--query", "P(Sick(x1))")
        return bundled, extra

    def test_varying_spec_entry_of_no_template_logvar_changes_no_byte(self, data_dir, tmp_path):
        # the domain size sums the varying logvars of the template only
        z = {"worlds": [{"constants": ["z1"], "prob": 0.5}, {"constants": ["z1", "z2"], "prob": 0.5}]}
        bundled, extra = self.query_with_z(data_dir, tmp_path, z)
        assert extra.exit_code == bundled.exit_code == 0
        assert extra.stdout == bundled.stdout

    def test_unweighted_spec_entry_of_no_template_logvar_changes_no_byte(self, data_dir, tmp_path):
        # Z enters no world, so its unweighted entry mixes with the weighted X of no world
        z = {"worlds": [{"constants": ["z1"]}, {"constants": ["z1", "z2"]}]}
        bundled, extra = self.query_with_z(data_dir, tmp_path, z)
        assert extra.exit_code == bundled.exit_code == 0
        assert extra.stdout == bundled.stdout

    def test_empty_target_is_input_error(self, small_universe):
        result = run("query", *small_universe, "--query", "P()")
        assert result.exit_code == 2

    def test_multi_target_joint_columns(self, small_universe):
        result = run("query", *small_universe, "--query", "P(Sick(x1), Sick(x2))")
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        joint_cols = [c for c in rows[0] if c.startswith("p_")]
        assert joint_cols == [
            "p_Sick(x1)=false&Sick(x2)=false",
            "p_Sick(x1)=false&Sick(x2)=true",
            "p_Sick(x1)=true&Sick(x2)=false",
            "p_Sick(x1)=true&Sick(x2)=true",
        ]
        for row in rows:
            assert sum(float(row[c]) for c in joint_cols) == pytest.approx(1.0, abs=1e-9)

    def test_binary_atom_query_answers_each_model_that_holds_it(self, data_dir):
        # pair(t2,t3) leaves t1 out of 20 of the 60 bundled worlds
        from liftworlds import UniverseModel, expand, lifted_query, load_domain_spec, load_program

        text = "P(Treat(x1,t1))"
        result = run("query", *paper_args(data_dir), "--query", text)
        assert result.exit_code == 0
        assert "skipped 20 of 60 models" in result.stderr
        rows = rows_of(result.stdout)
        assert len(rows) == 40
        universe = UniverseModel(
            load_model(data_dir / "model.json"),
            load_program(data_dir / "constraints.program"),
            load_domain_spec(data_dir / "domains.json"),
        )
        models = {wm.provenance.world_id: wm.model for wm in expand(universe)}
        q = parse_query(text)
        for row in rows:
            want = lifted_query(models[row["world_id"]], q)
            assert [row["p_Treat(x1,t1)=false"], row["p_Treat(x1,t1)=true"]] == [
                "%.12g" % p for p in want.probs
            ]

    def test_query_json_matches_csv(self, small_universe):
        as_csv = run("query", *small_universe, "--query", "P(Sick(x1))")
        as_json = run("query", *small_universe, "--query", "P(Sick(x1))", "--format", "json")
        csv_rows = rows_of(as_csv.stdout)
        json_rows = json.loads(as_json.stdout)
        assert len(csv_rows) == len(json_rows) == 4
        for a, b in zip(csv_rows, json_rows):
            assert a["world_id"] == b["world_id"]
            assert float(a["model_prob"]) == pytest.approx(b["model_prob"], rel=1e-11)
            assert float(a["p_Sick(x1)=true"]) == pytest.approx(
                b["p_Sick(x1)=true"], rel=1e-11
            )

    def test_inconsistent_evidence_is_inference_error(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {
                    "randvars": [{"name": "Epid", "arity": 0}, {"name": "Sick", "arity": 1}],
                    "logvars": ["X"],
                    "parfactors": [
                        {
                            "args": [["Epid"], ["Sick", "X"]],
                            "values": [1, 0, 1, 0],
                            "constraint": "empty",
                        }
                    ],
                }
            )
        )
        program = tmp_path / "p.program"
        program.write_text("constraint g0 <- top.\n")
        domains = tmp_path / "d.json"
        domains.write_text(json.dumps({"X": {"constants": ["a"]}}))
        result = run(
            "query",
            "--model", str(model),
            "--program", str(program),
            "--domains", str(domains),
            "--query", "P(Epid | Sick(a)=true)",
        )
        assert result.exit_code == 3
        assert "inconsistent" in result.stderr


class TestSelections:
    def test_topk_by_model_probability_picks_mode(self, data_dir):
        result = run(
            "topk",
            *paper_args(data_dir, "--threshold", "0.05", "--cascade"),
            "--query", "P(Sick(x1))",
            "--k", "1",
        )
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert len(rows) == 1
        assert rows[0]["domain_size"] == "500"
        assert rows[0]["reason"] == "1"

    def test_topk_by_event_probability(self, small_universe):
        result = run("topk", *small_universe, "--event", "Sick(x1)=true", "--k", "3")
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert [r["domain_size"] for r in rows] == ["2", "3", "4"]
        assert [r["reason"] for r in rows] == ["1", "2", "3"]

    def test_topk_by_event_on_a_binary_atom(self, data_dir):
        result = run("topk", *paper_args(data_dir), "--event", "Treat(x1,t1)=true", "--k", "3")
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert [r["reason"] for r in rows] == ["1", "2", "3"]

    def test_topk_needs_event_or_query(self, small_universe):
        result = run("topk", *small_universe, "--k", "1")
        assert result.exit_code == 2

    def test_skyline_matches_brute_force_of_query_rows(self, small_universe):
        full = run("query", *small_universe, "--query", "P(Sick(x1))")
        sky = run("skyline", *small_universe, "--event", "Sick(x1)=true")
        assert sky.exit_code == 0
        full_rows = rows_of(full.stdout)
        sky_rows = rows_of(sky.stdout)
        assert all(r["reason"] == "skyline" for r in sky_rows)
        pts = np.array(
            [[float(r["model_prob"]), float(r["p_Sick(x1)=true"])] for r in full_rows]
        )
        want = {full_rows[i]["world_id"] for i in brute_force_skyline(pts)}
        assert {r["world_id"] for r in sky_rows} == want

    def test_trend_reports_decline(self, small_universe):
        result = run("trend", *small_universe, "--event", "Sick(x1)=true")
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert rows[0]["direction"] == "decreasing"
        assert int(rows[0]["entries"]) == 4


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path, small_universe):
        model = tmp_path / "random_model.json"
        doc = dict(SMALL_MODEL)
        doc["parfactors"] = [dict(p) for p in SMALL_MODEL["parfactors"]]
        for p in doc["parfactors"]:
            p["values"] = "random"
        model.write_text(json.dumps(doc))
        args = ("--model", str(model)) + small_universe[2:] + ("--seed", "11")
        first = run("expand", *args)
        second = run("expand", *args)
        assert first.stdout == second.stdout
        q = ("--query", "P(Sick(x1))")
        first_q = run("query", *args, *q)
        second_q = run("query", *args, *q)
        assert first_q.exit_code == 0
        assert first_q.stdout == second_q.stdout
        different = run("query", "--model", str(model), *small_universe[2:], "--seed", "12", *q)
        assert different.stdout != first_q.stdout

    @pytest.mark.parametrize("command", [("expand",), ("query", "--query", "P(Sick(x1))", "--format", "json")])
    def test_out_file_holds_the_bytes_stdout_gets(self, tmp_path, small_universe, command):
        path = tmp_path / "rows.out"
        to_stdout = run(command[0], *small_universe, *command[1:])
        to_file = run(command[0], *small_universe, *command[1:], "--out", str(path))
        assert to_stdout.exit_code == to_file.exit_code == 0
        assert to_file.stdout == "" and to_file.stderr == to_stdout.stderr
        assert path.read_bytes() == to_stdout.stdout.encode()


class TestPinnedBytes:
    """SHA-256 of the CSV each subcommand writes for the bundled triple.

    The digests were recorded before worlds that differ by a renaming of
    unmentioned constants began to share one answer in ``query_all``; output
    must stay byte-identical for identical inputs across such changes.
    """

    DIGESTS = {
        ("expand",): "3d7f0b4dfad1025d731fc3dc846fa3e4f8be5690b9ad75cfe12e1759820f1f50",
        ("query", "--query", "P(Sick(x1))"): "5c38a8212beb54e9d0b61c377661f63f9015d4f180563a255eaecd353cc6d0b4",
        ("topk", "--query", "P(Sick(x1))", "--k", "5"): "4d98ca643ac06748b262d8c7abcadd6ed31db310eb382e491ca9d655ca1a4495",
        ("topk", "--event", "Sick(x1)=true", "--k", "5"): "364a876e4244bfd06982612122f6bf7558dc23254186353c7447560dbacc6f58",
        ("skyline", "--event", "Sick(x1)=true"): "5ddcdfc759143423612c03fdbb933d066077f2aab8c22a900df5a4fe54ba58a3",
        ("trend", "--event", "Sick(x1)=true"): "dec742b9c3c447b2ac752a8f9880d7e5cb9b33e60c106b86a6ffa78284f203ee",
    }

    @pytest.mark.parametrize("command", list(DIGESTS), ids=" ".join)
    def test_csv_bytes_are_pinned(self, data_dir, command):
        result = run(command[0], *paper_args(data_dir), *command[1:])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == self.DIGESTS[command]


@pytest.mark.parametrize("seed", ["6", "12"])
def test_pinned_outputs_hold_under_other_string_hashes(seed):
    # groups are frozensets of blocks and ConstantSets hold frozensets of
    # names, so their iteration order follows string hashes, which differ
    # between processes; the pinned op logs and CSV bytes, and query_all's
    # batched answers against per-model runs, are checked again in a process
    # that hashes strings another way; so are ground_ve's answer bytes, whose
    # elimination order phase 2 shares; phase 2's atom keys, tuples of
    # strings, whose hashes must never leak into ids or ranks; phase 1's
    # units, keyed by groups, each tried at most once; and query_all's form
    # keys, whose tags hash by identity, against keys by _shape
    pinned = [
        "tests/test_engine.py::test_op_logs_and_answers_are_pinned",
        "tests/test_engine.py::test_ground_ve_answers_are_pinned",
        "tests/test_engine.py::test_phase_two_makes_no_atom_per_grounding",
        "tests/test_engine.py::test_one_id_per_atom_across_positions_and_parfactors",
        "tests/test_engine.py::test_phase_one_tries_each_unit_once_and_never_a_target",
        "tests/test_cli.py::TestPinnedBytes",
        "tests/test_queries.py::test_query_all_matches_lifted_query",
        "tests/test_queries.py::test_form_keys_group_worlds_as_shape_keys",
    ]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pinned],
        cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-3000:]
    assert "13 passed" in result.stdout, result.stdout[-3000:]
