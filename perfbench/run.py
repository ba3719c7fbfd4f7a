"""periodforge benchmark: cold single-process workloads, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Every pass of a workload runs in a fresh worker process (``worker.py``)
with BLAS pinned to one thread, so module caches start cold, as they do for
a command-line user.  A run repeats passes while another one still fits in
``--seconds`` (at least one) and reports medians.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``, plus ``fail_frac`` and ``mc_efficiency`` on the lines
above the result).  ``--trace 1`` makes one untraced and one traced pass
with the same seed, checks that every estimate is bit-identical between
them, and prints the per-layer metrics.  With one workload the last line of
standard output is the JSON result; ``--workload all`` runs every workload
and prints one result line per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BUDGET_S = 170.0      # every run ends well inside 180 s
# Set-up-only processes before every pass and after the last one.  The
# machine's speed changes within seconds, so set-ups spread over the whole
# run give a steadier median than a batch at its start.
SETUP_EACH = 3
WORKER_ENV = {
    "PYTHONPATH": str(SRC),
    # numpy's OpenBLAS otherwise starts a thread per core even when the
    # Monte-Carlo engine runs with threads=1
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

class WorkerError(RuntimeError):
    pass


def _worker(ops: list[dict], *flags: str, timeout: float) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *flags],
        input=json.dumps(ops), capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - started
    out["process_s"] = time.monotonic() - started
    return out


def _mc_efficiency(results) -> float:
    """Geometric mean over the integrals of 1 / (rel_stderr^2 * seconds)."""
    logs = [-math.log((r["stderr"] / r["mean"]) ** 2 * r["seconds"])
            for r in results if r.get("mean") and r["stderr"] > 0]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _counts_repeat(workload: str, counts: dict) -> str | None:
    """Exact counts must repeat for the same source tree: compare with the
    last traced run of this workload, then remember these."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "exact_counts.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}@{_src_digest()}"
    before = seen.get(key)
    seen[key] = counts
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    if before is not None and before != counts:
        return f"exact counts changed between runs: {before} -> {counts}"
    return None


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    from spans import EXACT_COUNTS, layer_metrics, load
    from workloads import MC_KINDS, check, operations

    t_start = time.monotonic()

    def left() -> float:
        return BUDGET_S - (time.monotonic() - t_start)

    ops = operations(workload, seed)
    passes, setups = [], []
    failed: set[tuple[int, int]] = set()    # (pass, operation)
    messages: list[str] = []

    def fail(p: int, i: int, why: str) -> None:
        failed.add((p, i))
        messages.append(f"pass {p} {ops[i]['label']}: {why}")

    def checked(res):
        passes.append(res)
        for i, (op, r) in enumerate(zip(ops, res["results"])):
            why = check(op, r)
            if why is not None:
                fail(len(passes) - 1, i, why)

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        def set_up():
            for _ in range(SETUP_EACH):
                setups.append(_worker(ops, "--setup-only",
                                      timeout=left())["setup_s"])

        while True:
            set_up()
            res = _worker(ops, timeout=left())
            setups.append(res["setup_s"])
            checked(res)
            elapsed = time.monotonic() - t_start
            if elapsed + res["process_s"] > min(seconds, BUDGET_S):
                break
        set_up()
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["wall_s"] = (statistics.median(p["wall_s"] for p in passes),
                             "s")
        metrics["peak_rss_mb"] = (
            statistics.median(p["peak_rss_mb"] for p in passes), "MB")
        extra = {"passes": (len(passes), "count")}
        if any(op["kind"] in MC_KINDS for op in ops):
            extra["mc_efficiency"] = (statistics.median(
                _mc_efficiency(p["results"]) for p in passes), "1/s")
    else:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-{seed}.json.gz"
        plain = _worker(ops, timeout=left())
        checked(plain)
        traced = _worker(ops, "--trace", str(spans_path), timeout=left())
        checked(traced)
        for i, (a, b) in enumerate(zip(plain["results"], traced["results"])):
            if "mean" in a and (a.get("mean"), a.get("stderr")) != \
                    (b.get("mean"), b.get("stderr")):
                fail(1, i, f"same seed, different estimate {a} vs {b}")
        data = load(spans_path)
        layers = layer_metrics(data["spans"], data["wall_s"])
        drift = _counts_repeat(workload,
                               {k: layers[k] for k in EXACT_COUNTS})
        if drift is not None:
            for i in range(len(ops)):
                fail(1, i, drift)
        for name, value in layers.items():
            metrics[name] = (value, _unit(name))
        metrics["trace_overhead"] = (
            traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
        metrics["mc_efficiency"] = (_mc_efficiency(plain["results"]),
                                    "1/s")
        extra = {}

    env = dict(passes[0]["env"], nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)))
    print(f"# {workload}: seed {seed}, {len(passes)} pass(es), "
          f"{len(setups)} set-up(s); " +
          ", ".join(f"{k} {v}" for k, v in env.items()))
    attempted = len(ops) * len(passes)
    extra["fail_frac"] = (len(failed) / attempted, "1")
    for msg in messages:
        print(f"# FAILED {workload}: {msg}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{workload:16s} {name:34s} {value:>16.6g} {unit}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith(("tropical.us_", "forms.us_", "canonical.us_")):
        return "us"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "periodforge" / "__init__.py").is_file():
        print(f"error: no periodforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in zip(names, results):
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
