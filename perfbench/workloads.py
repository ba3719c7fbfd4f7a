"""Workload definitions, per-operation seeds, reference values and checks.

A workload is a list of operations.  Each operation is plain JSON data
(graphs as weight and edge tuples, form words, sample counts, seeds), so
the worker process hands the program nothing but its inputs.  Reference
values and the acceptance rules live here, on the side of the benchmark
that never runs under the clock.
"""

from __future__ import annotations

import hashlib
import math

from periodforge.graphs import complete, two_vertex_join, wheel, zigzag

MC_KINDS = ("canonical", "residue", "monomial")


def op_seed(seed: int, workload: str, index: int) -> int:
    """32-bit per-operation seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _graph(g):
    return [list(g.weights), [list(e) for e in g.edges]]


def _periods_form():
    return [
        {"kind": "canonical", "label": "W3 omega5", "graph": _graph(wheel(3)),
         "form": [5], "samples": 300_000, "target": "60*zeta(3)"},
        {"kind": "canonical", "label": "W5 omega9", "graph": _graph(wheel(5)),
         "form": [9], "samples": 300_000, "target": "1260*zeta(5)"},
    ]


def _periods_k6():
    return [
        {"kind": "canonical", "label": "K6 omega5^omega9",
         "graph": _graph(complete(6)), "form": [5, 9], "samples": 4_000,
         "shard_size": 2_000, "stretch": True,
         "target": "22680*(360*zeta2(5,3) + 690*zeta(3)*zeta(5)"
                   " - 29/315*pi^8)"},
    ]


def _periods_residue():
    ops = []
    for n in (3, 4, 5):
        ops.append({"kind": "residue", "label": f"W{n} residue",
                    "graph": _graph(wheel(n)), "samples": 400_000,
                    "target": f"{math.comb(2 * n - 2, n - 1)}*zeta({2 * n - 3})"})
    ops.append({"kind": "residue", "label": "Z5 residue",
                "graph": _graph(zigzag(5)), "samples": 500_000,
                "target": "441/8*zeta(7)"})
    ops.append({"kind": "residue", "label": "W3:W3 residue",
                "graph": _graph(two_vertex_join(wheel(3), 4, wheel(3), 4)),
                "samples": 500_000, "target": "(6*zeta(3))^2"})
    ops.append({"kind": "residue", "label": "Z8 residue",
                "graph": _graph(zigzag(8)), "samples": 200_000,
                "target": "1716*zeta(13)"})
    ops.append({"kind": "monomial", "label": "W5 spoke [1..5]/Psi^3",
                "graph": _graph(wheel(5)), "edges": [1, 2, 3, 4, 5],
                "psi_power": 3, "coeff": 12, "samples": 400_000,
                "target": "70*(zeta(5)-zeta(7))"})
    return ops


def _gc_homology():
    dims = {3: {0: 1}, 4: {}, 5: {0: 1}, 6: {3: 1}}
    stable = {2: 7, 3: 42, 4: 379}
    ops = [{"kind": "homology", "label": f"homology L={L}", "loops": L,
            "expect": dims[L]} for L in (3, 4, 5, 6)]
    ops += [{"kind": "stable", "label": f"stable g={g}", "genus": g,
             "expect": stable[g]} for g in (2, 3, 4)]
    return ops


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "periods-form": _periods_form,
    "periods-k6": _periods_k6,
    "periods-residue": _periods_residue,
    "gc-homology": _gc_homology,
}

def operations(workload: str, seed: int) -> list[dict]:
    """The workload's operation list with per-operation seeds filled in.

    The exact workload takes no random input, so its seed changes nothing.
    """
    ops = WORKLOADS[workload]()
    for i, op in enumerate(ops):
        if op["kind"] in MC_KINDS:
            op["seed"] = op_seed(seed, workload, i)
    return ops


def check(op: dict, result: dict) -> str | None:
    """None if the result is correct, else a one-line reason.

    Monte-Carlo estimates use the acceptance tolerance (3 standard errors
    plus 0.5%) around the closed form, K6 the stretch test's
    max(3 sigma, 5%); exact results must match exactly.
    """
    from periodforge.cli import evaluate_target
    from periodforge.engine import tolerance

    if result.get("error"):
        return result["error"]
    kind = op["kind"]
    if kind in MC_KINDS:
        target = float(evaluate_target(op["target"]))
        mean, stderr = abs(result["mean"]), result["stderr"]
        if op.get("stretch"):
            tol = max(3 * stderr, 0.05 * target)
        else:
            tol = tolerance(target, stderr)
        if not (math.isfinite(mean) and abs(mean - target) <= tol):
            return (f"{mean:.8g} vs {op['target']} = {target:.8g}, "
                    f"tol {tol:.3g}")
        return None
    if kind == "homology":
        dims = {int(k): v for k, v in result["dims"].items()}
        return None if dims == op["expect"] else \
            f"dims {dims} != {op['expect']}"
    if kind == "stable":
        return None if result["count"] == op["expect"] else \
            f"{result['count']} graphs != {op['expect']}"
    raise ValueError(f"unknown operation kind {kind!r}")
