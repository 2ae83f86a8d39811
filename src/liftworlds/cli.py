"""Command-line surface: expand universes, run queries, select answers.

Every command takes the triple (--model, --program, --domains) plus optional
threshold filtering, and writes CSV (default) or JSON. Probabilities are
printed with 12 significant digits so runs can be compared byte for byte.
Exit codes: 0 success, 2 input error, 3 inference error.
"""

from __future__ import annotations

import csv
import functools
import io as std_io
import itertools
import json
import sys

import click

from .domains import WorldFilter
from .errors import InferenceError, LiftworldsError, ValidationError
from .io import load_domain_spec, load_model, load_program, parse_event, parse_query
from .model import TemplateModel
from .queries import (
    AnswerSet,
    EventProbe,
    query_all,
    skyline,
    top_k_model_prob,
    top_k_query_prob,
    trend_report,
)
from .universe import UniverseModel, expand, manifest_rows


_TRIPLE_OPTIONS = (
    click.option("--model", "model_path", required=True, type=click.Path(exists=True)),
    click.option("--program", "program_path", required=True, type=click.Path(exists=True)),
    click.option("--domains", "domains_path", required=True, type=click.Path(exists=True)),
    click.option("--threshold", type=float, default=None, help="drop worlds with prob <= t"),
    click.option("--cascade", is_flag=True, help="apply the threshold to combined weights too"),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv"),
    click.option("--out", default="-", help="output path, '-' for stdout"),
    click.option("--seed", type=int, default=None, help="seed for 'random' table values"),
)


def _command(name):
    """Register ``fn(universe, **options)`` as the subcommand ``name`` on the triple.

    The subcommand takes the triple options besides its own. The universe
    they load is passed to ``fn``, and the rows ``fn`` returns are written in
    ``--format`` to ``--out``. An inference error exits with 3, and any
    other library error, or a file that cannot be read or written, with 2.
    """

    def register(fn):
        @functools.wraps(fn)  # which also carries over fn's own options, its __click_params__
        def run(model_path, program_path, domains_path, threshold, cascade, fmt, out, seed, **options):
            try:
                universe = _load_universe(model_path, program_path, domains_path, threshold, cascade, seed)
                _write_rows(fn(universe, **options), fmt, out)
            except (LiftworldsError, OSError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(3 if isinstance(exc, InferenceError) else 2)

        for option in _TRIPLE_OPTIONS:
            run = option(run)
        return main.command(name)(run)

    return register


def _load_universe(model_path, program_path, domains_path, threshold, cascade, seed):
    model = load_model(model_path, seed=seed)
    if not isinstance(model, TemplateModel):
        raise ValidationError("the pipeline needs a template model (all constraints empty)")
    filt = None
    if threshold is not None:
        filt = WorldFilter(threshold, cascade=cascade)
    elif cascade:
        raise ValidationError("--cascade needs --threshold")
    return UniverseModel(model, load_program(program_path), load_domain_spec(domains_path), filt)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _write_rows(rows: list[dict], fmt: str, out: str):
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = std_io.StringIO()
        fieldnames = list(rows[0]) if rows else []
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])
        text = buf.getvalue()
    if out == "-":
        click.get_text_stream("stdout").write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _value_labels(answer) -> list[str]:
    labels = []
    for combo in itertools.product(*[list(r) for r in answer.ranges]):
        labels.append("&".join(f"{a}={v}" for a, v in zip(answer.targets, combo)))
    return labels


def _answer_rows(aset: AnswerSet) -> list[dict]:
    rows = []
    labels = _value_labels(aset.entries[0].answer) if aset.entries else []
    for entry in aset.entries:
        row = {
            "world_id": entry.provenance.world_id,
            "domain_size": entry.provenance.domain_size,
            "model_prob": entry.model_prob,
        }
        for label, p in zip(labels, entry.answer.probs):
            row[f"p_{label}"] = float(p)
        rows.append(row)
    return rows


def _run_query(universe, query_text) -> AnswerSet:
    models = expand(universe)
    return query_all(models, parse_query(query_text))


def _probe(universe, event_text, query_text) -> tuple[EventProbe, AnswerSet]:
    """The probe of ``--event``, and the answers to ``--query`` (by default, P(the probe's atom))."""
    atom, value = parse_event(event_text)
    if query_text is None:
        query_text = f"P({atom})"
    return EventProbe(atom, value), _run_query(universe, query_text)


@click.group()
@click.version_option(package_name="liftworlds")
def main():
    """Expand models with unknown universes and answer lifted queries on them."""


@_command("expand")
def cmd_expand(universe):
    """Write the world manifest: one row per weighted model."""
    models = expand(universe)
    mass = sum(m.prob for m in models)
    click.echo(f"{len(models)} worlds, retained mass {_fmt(mass)}", err=True)
    return manifest_rows(models, universe.template)


@_command("query")
@click.option("--query", "query_text", required=True, help="e.g. 'P(Sick(x1) | Epid=true)'")
def cmd_query(universe, query_text):
    """Answer one query on every expanded model."""
    aset = _run_query(universe, query_text)
    if aset.skipped:
        click.echo(f"skipped {len(aset.skipped)} of {len(aset.skipped) + len(aset.entries)} models", err=True)
    return _answer_rows(aset)


@_command("topk")
@click.option("--query", "query_text", default=None)
@click.option("--event", "event_text", default=None, help="rank by P(event), e.g. 'Sick(x1)=true'")
@click.option("--k", type=int, required=True)
def cmd_topk(universe, query_text, event_text, k):
    """Top-k answers by event probability (--event) or by model probability."""
    if event_text is not None:
        probe, aset = _probe(universe, event_text, query_text)
        selection = top_k_query_prob(aset, probe, k)
    else:
        if query_text is None:
            raise ValidationError("topk needs --event or --query")
        aset = _run_query(universe, query_text)
        selection = top_k_model_prob(aset, k)
    if selection.clipped:
        click.echo(f"only {len(selection.entries)} models available for k={k}", err=True)
    rows = _answer_rows(AnswerSet(aset.query, selection.entries))
    for rank, row in enumerate(rows, start=1):
        row["reason"] = str(rank)
    return rows


@_command("skyline")
@click.option("--query", "query_text", default=None)
@click.option("--event", "event_text", required=True)
def cmd_skyline(universe, query_text, event_text):
    """Pareto frontier over (model probability, event probability)."""
    probe, aset = _probe(universe, event_text, query_text)
    frontier = skyline(aset, probe)
    rows = _answer_rows(AnswerSet(aset.query, frontier))
    for row in rows:
        row["reason"] = "skyline"
    return rows


@_command("trend")
@click.option("--query", "query_text", default=None)
@click.option("--event", "event_text", required=True)
def cmd_trend(universe, query_text, event_text):
    """Classify how P(event) moves as the domain size grows."""
    probe, aset = _probe(universe, event_text, query_text)
    report = trend_report(aset, probe)
    return [
        {
            "direction": report.direction,
            "max_adjacent_delta": report.max_adjacent_delta,
            "entries": report.entries,
        }
    ]


if __name__ == "__main__":
    main()
