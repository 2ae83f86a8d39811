"""Steadiness check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/steady.py

Runs every workload in ``BENCHMARK.json`` in two sets of ten runs,
alternating between the sets, one run at a time, each run with its own seed.
For every end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over median) and how far the second median moved
from the first, and whether that stays within the metric's bound in
``BENCHMARK.json``: every spread within the bound, the second median within
the bound of the first in either direction, and the same share of failed
operations in both sets. The raw results go to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per set


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: dict[str, list[list[dict]]] = {}
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets: list[list[dict]] = [[], []]
        for i in range(RUNS):
            for s in (0, 1):
                seed = 1 + s * RUNS + i
                sets[s].append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
                print(f"{workload} set {s + 1} run {i + 1} seed {seed}: "
                      f"{json.dumps(sets[s][-1]['metrics'])}", file=sys.stderr, flush=True)
        results[workload] = sets

        print(f"\n{workload}")
        print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'moved':>9}{'bound':>8}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            moved = (stats[1][0] - stats[0][0]) / stats[0][0]
            ok = abs(moved) <= bound and all(st[3] <= bound for st in stats)
            all_ok &= ok
            for s, (median, q1, q3, spread) in enumerate(stats):
                tail = f"{moved:>+9.3f}{bound:>8.3f}  {'ok' if ok else 'NOT STEADY'}" if s else ""
                print(f"  {name if not s else '':<14}{s + 1:>4}{median:>12.4f}{q1:>12.4f}"
                      f"{q3:>12.4f}{spread:>9.3f}{tail}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        all_ok &= shares[0] == shares[1] and correct
        print(f"  failed share {shares[0]:.4f} / {shares[1]:.4f}, "
              f"{'all checks correct' if correct else 'INCORRECT OUTPUT'}")

    out = HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\n{'all workloads agree within their bounds' if all_ok else 'NOT STEADY'}; "
          f"raw results in {out.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
