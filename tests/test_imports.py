import ast
import os
import subprocess
import sys
from pathlib import Path

import periodforge

# The exact layers load numpy only inside the functions that use it: the
# order in which a process loads numpy moves its resident set.
EXACT_MODULES = ("graphs", "canonical", "polynomials", "graphcomplex", "forms")


def _fresh_modules(code: str) -> set[str]:
    """Names in sys.modules after running ``code`` in a new interpreter."""
    src = str(Path(periodforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_exact_layers_do_not_import_numpy():
    mods = _fresh_modules("".join(f"import periodforge.{m}\n"
                                  for m in EXACT_MODULES))
    assert "numpy" not in mods


def test_psi_does_not_load_the_labeller():
    mods = _fresh_modules("from periodforge.graphs import complete\n"
                          "from periodforge.polynomials import graph_polynomial\n"
                          "graph_polynomial(complete(6))\n")
    assert "periodforge.polynomials" in mods
    assert "periodforge.canonical" not in mods


def test_cli_import_loads_no_layer():
    mods = _fresh_modules("import periodforge.cli\n")
    for name in ("mpmath", "numpy", "concurrent.futures",
                 "periodforge.voronoi", "periodforge.zeta"):
        assert name not in mods, name


def test_exact_commands_load_neither_numpy_nor_mpmath(tmp_path):
    graph = tmp_path / "sunrise.g"
    graph.write_text("v 1\nv 2\ne 1 1 2\ne 2 1 2\ne 3 1 2\n")
    for argv in (["gc-homology", "--loops", "3"], ["psi", str(graph)]):
        mods = _fresh_modules("from periodforge.cli import main\n"
                              f"assert main({argv!r}) == 0\n")
        assert "numpy" not in mods, argv
        assert "mpmath" not in mods, argv


def test_evaluate_target_in_a_cold_interpreter():
    """The benchmark's parent process checks estimates with evaluate_target
    before it has imported mpmath or the zeta module."""
    mods = _fresh_modules("from periodforge.cli import evaluate_target\n"
                          "v = float(evaluate_target('6*zeta(3)'))\n"
                          "assert abs(v - 7.212341418957566) < 1e-14, v\n")
    assert "periodforge.zeta" in mods


def test_benchmark_span_targets_resolve():
    """The traced benchmark pass wraps public names of the layers by
    string; a renamed or removed one fails here, not only in that pass."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    _fresh_modules(f"import sys\nsys.path.insert(0, {str(bench)!r})\n"
                   "import periodforge.cli\n"
                   "from periodforge import engine, graphcomplex, graphs\n"
                   "from periodforge.forms import FormSpec\n"
                   "from spans import SpanRecorder\n"
                   "SpanRecorder().install()\n")


def test_benchmark_worker_runs_every_operation_kind():
    """The benchmark's worker calls the library as the benchmark does
    (``threads=1`` included) on one small operation of each kind; no
    operation may come back with an error."""
    import json

    from periodforge.graphs import wheel

    def graph(g):
        return [list(g.weights), [list(e) for e in g.edges]]

    ops = [{"kind": "canonical", "graph": graph(wheel(3)), "form": [5],
            "samples": 2000, "seed": 1},
           {"kind": "canonical", "graph": graph(wheel(5)), "form": [9],
            "samples": 2000, "shard_size": 1000, "seed": 2},
           {"kind": "residue", "graph": graph(wheel(3)), "samples": 2000,
            "seed": 3},
           {"kind": "monomial", "graph": graph(wheel(5)),
            "edges": [1, 2, 3, 4, 5], "psi_power": 3, "coeff": 12,
            "samples": 2000, "seed": 4},
           {"kind": "homology", "loops": 3},
           {"kind": "stable", "genus": 2}]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    worker = root / "perfbench" / "worker.py"
    out = subprocess.run([sys.executable, str(worker)], input=json.dumps(ops),
                         env=env, capture_output=True, text=True, check=True)
    results = json.loads(out.stdout)["results"]
    assert len(results) == len(ops)
    assert not [r for r in results if "error" in r], results


def test_span_counts_sum_over_blocks():
    """The sampler and the form evaluator run once per block, and the
    span counters read each call's rows, so the traced totals are the
    samples drawn and evaluated, whatever the block size."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    _fresh_modules(f"import sys\nsys.path.insert(0, {str(bench)!r})\n"
                   "from periodforge import engine\n"
                   "from periodforge.forms import FormSpec\n"
                   "from periodforge.graphs import wheel\n"
                   "from spans import SpanRecorder, layer_metrics\n"
                   "rec = SpanRecorder()\n"
                   "rec.install()\n"
                   "engine._BLOCK = 3000\n"
                   "engine.integrate_residue(wheel(3), 20000, seed=1)\n"
                   "engine.integrate_canonical(wheel(3), FormSpec((5,)), "
                   "20000, seed=1)\n"
                   "m = layer_metrics(rec.spans, 0.0)\n"
                   "assert m['tropical.samples'] == 40000, m\n"
                   "assert m['forms.points'] == 20000, m\n"
                   "calls = [s[3] for s in rec.spans].count('tropical.sample')\n"
                   "assert calls == 14, calls\n")


def test_layer_errors_are_value_errors():
    """The CLI maps ValueError to exit 2 without importing the layers, so
    every error class of every layer, the engine's included, is one."""
    import importlib

    package = Path(periodforge.__file__).parent
    errors = []
    for path in sorted(package.glob("[!_]*.py")):
        module = importlib.import_module(f"periodforge.{path.stem}")
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__]
    assert len(errors) >= 8
    outside = [e.__name__ for e in errors if not issubclass(e, ValueError)]
    assert not outside, outside


def test_every_import_is_used():
    """Each name a module imports is read somewhere in that module."""
    unused = []
    for path in sorted(Path(periodforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def _references(tree: ast.Module):
    """(name, owner) for every name a module reads, every attribute it
    looks up and every name it imports.  The owner is the top-level
    definition the reference sits in, as a 1-tuple, or (class, method)
    inside a method of a top-level class."""
    for top in tree.body:
        parts = [((getattr(top, "name", None),), top)]
        if isinstance(top, ast.ClassDef):
            parts = [((top.name,), node) for node in
                     top.bases + top.keywords + top.decorator_list]
            parts += [((top.name, node.name), node)
                      if isinstance(node, ast.FunctionDef)
                      else ((top.name,), node) for node in top.body]
        for owner, part in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Name):
                    yield node.id, owner
                elif isinstance(node, ast.Attribute):
                    yield node.attr, owner
                elif isinstance(node, ast.ImportFrom):
                    for a in node.names:
                        yield a.name, owner


def _definitions(tree: ast.Module):
    """(line, name, owner) for each top-level function and class, and each
    method of a top-level class that is not a dunder."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.lineno, top.name, (top.name,)
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    yield node.lineno, node.name, (top.name, node.name)


def test_every_top_level_definition_is_referenced():
    """Each top-level function and class of the package, and each method of
    its classes other than the dunders, is used from the package, the tests
    or the benchmark, other than by its own body.  Methods count by name:
    any attribute lookup of that name is a use."""
    package = Path(periodforge.__file__).resolve().parent
    root = Path(__file__).resolve().parents[1]
    users: dict[str, set] = {}
    defs = []
    for folder in (package, root / "tests", root / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text())
            for name, owner in _references(tree):
                users.setdefault(name, set()).add((path, owner))
            if folder == package:
                defs += [(path, *d) for d in _definitions(tree)]
    unused = [f"{path.name}:{line} {'.'.join(owner)}"
              for path, line, name, owner in defs
              if not any(p != path or o[:len(owner)] != owner
                         for p, o in users.get(name, ()))]
    assert not unused, unused


def _optional_parameters(tree: ast.Module):
    """(line, label, call name, {parameter: position or None}) for the
    defaulted parameters of each public top-level function, each public
    method of a public top-level class and each such class's constructor:
    its ``__init__``, or the fields of a dataclass.  The position counts
    the arguments a call passes, so a method's ``self`` or ``cls`` is not
    counted; a keyword-only parameter has None."""
    def params(fn, skip):
        a = fn.args
        pos = (a.posonlyargs + a.args)[skip:]
        out = {p.arg: i for i, p in enumerate(pos)
               if i >= len(pos) - len(a.defaults)}
        out.update((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None)
        return out

    for top in tree.body:
        if getattr(top, "name", "_").startswith("_"):
            continue
        if isinstance(top, ast.FunctionDef):
            yield top.lineno, top.name, top.name, params(top, 0)
        if not isinstance(top, ast.ClassDef):
            continue
        methods = [n for n in top.body if isinstance(n, ast.FunctionDef)]
        fields = [n for n in top.body if isinstance(n, ast.AnnAssign)]
        if "__init__" not in {m.name for m in methods} and any(
                "dataclass" in ast.unparse(d) for d in top.decorator_list):
            yield top.lineno, top.name, top.name, {
                f.target.id: i for i, f in enumerate(fields) if f.value}
        for node in methods:
            skip = 0 if any("staticmethod" in ast.unparse(d)
                            for d in node.decorator_list) else 1
            if node.name == "__init__":
                yield node.lineno, top.name, top.name, params(node, skip)
            elif not node.name.startswith("_"):
                yield (node.lineno, f"{top.name}.{node.name}", node.name,
                       params(node, skip))


def _calls(tree: ast.Module):
    """(called name, positional arguments before any ``*``, whether one is
    starred, keyword names, whether a ``**`` is passed) for every call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        star = [i for i, a in enumerate(node.args)
                if isinstance(a, ast.Starred)]
        yield (name, star[0] if star else len(node.args), bool(star),
               {k.arg for k in node.keywords if k.arg},
               any(k.arg is None for k in node.keywords))


def test_every_optional_parameter_is_passed():
    """Each defaulted parameter of a public function, public method or
    class constructor of the package is passed by some call in the
    package, the tests or the benchmark: by keyword, by position or
    through ``*``/``**``.  A parameter nothing passes is a constant.  Calls
    count by name: any call of that name or attribute is a use."""
    package = Path(periodforge.__file__).resolve().parent
    root = Path(__file__).resolve().parents[1]
    calls: dict[str, list] = {}
    defs = []
    for folder in (package, root / "tests", root / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text())
            for name, *passed in _calls(tree):
                calls.setdefault(name, []).append(passed)
            if folder == package:
                defs += [(path, *d) for d in _optional_parameters(tree)]
    unpassed = [f"{path.name}:{line} {label}({p})"
                for path, line, label, name, ps in defs
                for p, i in ps.items()
                if not any(p in kws or dstar
                           or (i is not None and (i < npos or star))
                           for npos, star, kws, dstar in calls.get(name, ()))]
    assert not unpassed, unpassed
