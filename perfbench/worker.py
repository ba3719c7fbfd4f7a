"""One fresh process running one workload's operation list.

Reads the operation list as JSON on stdin and prints one JSON line with the
results.  Run by ``perfbench/run.py``, which starts every worker with BLAS
pinned to one thread and ``src`` on the import path, so every module-level
cache (``_GC_CACHE``, ``_PARITY_CACHE``, ``_PSI_CACHE``) starts cold.

    worker.py [--setup-only] [--trace SPANS.json.gz]

``ready`` is the ``time.monotonic()`` reading once imports are done and the
inputs are built; the parent subtracts its own reading taken just before
the process was started.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time


def _build(op, Graph, FormSpec):
    """The program's inputs for one operation: graphs and form words."""
    built = dict(op)
    if "graph" in op:
        weights, edges = op["graph"]
        built["graph"] = Graph(tuple(weights), tuple(map(tuple, edges)))
    if "form" in op:
        built["form"] = FormSpec(op["form"])
    return built


def _run(op, engine, graphs, graphcomplex) -> dict:
    kind = op["kind"]
    if kind == "canonical":
        kw = {"shard_size": op["shard_size"]} if "shard_size" in op else {}
        est = engine.integrate_canonical(op["graph"], op["form"],
                                         op["samples"], op["seed"],
                                         threads=1, **kw)
    elif kind == "residue":
        est = engine.integrate_residue(op["graph"], op["samples"], op["seed"],
                                       threads=1)
    elif kind == "monomial":
        ig = engine.monomial_integrand(op["graph"], op["edges"],
                                       op["psi_power"], op["coeff"])
        est = engine.integrate(ig, op["samples"], op["seed"], threads=1)
    elif kind == "homology":
        rows = graphcomplex.homology_report(op["loops"])
        return {"dims": {row["degree"]: row["homology"] for row in rows
                         if row["homology"]}}
    elif kind == "stable":
        return {"count": len(graphs.enumerate_stable_weighted(op["genus"]))}
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return {"mean": est.mean, "stderr": est.stderr}


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    ops = json.loads(sys.stdin.read())

    # The command-line entry point loads every layer, as a CLI user's
    # process does; the operations then call the library directly.
    import periodforge.cli  # noqa: F401
    from periodforge import engine, graphcomplex, graphs
    from periodforge.forms import FormSpec
    inputs = [_build(op, graphs.Graph, FormSpec) for op in ops]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    results = []
    start = time.perf_counter()
    for i, op in enumerate(inputs):
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            res = _run(op, engine, graphs, graphcomplex)
        except Exception as exc:  # a failed operation is counted, not fatal
            res = {"error": f"{type(exc).__name__}: {exc}"}
        res["seconds"] = time.perf_counter() - t0
        results.append(res)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.op = -1
        recorder.dump(args.trace, {"wall_s": wall})

    print(json.dumps({"ready": ready, "wall_s": wall,
                      "peak_rss_mb": peak_rss_mb, "results": results,
                      "env": _environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
