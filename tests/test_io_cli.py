import json
from fractions import Fraction

import pytest

from periodforge.graphs import Graph, GraphError, banana, wheel
from periodforge.io import parse_graph, parse_matrix, write_graph, write_matrix
from periodforge.voronoi import QuadraticForm
from periodforge.cli import evaluate_target, main
from periodforge.zeta import zeta
from conftest import dunce_graph


SUNRISE_FILE = """\
# sunrise: 2 vertices, 3 parallel edges
v 1
v 2
e 1 1 2
e 2 1 2
e 3 1 2
"""


def test_parse_graph_roundtrip():
    g = parse_graph(SUNRISE_FILE)
    assert g == banana(3)
    assert parse_graph(write_graph(g)) == g
    weighted = Graph((0, 2), ((1, 2), (2, 2)))
    assert parse_graph(write_graph(weighted)) == weighted


def test_parse_graph_errors():
    with pytest.raises(GraphError):
        parse_graph("v 1\ne 2 1 1\n")  # edge ids must start at 1
    with pytest.raises(GraphError):
        parse_graph("v 1\ne 1 1 2\n")  # undeclared vertex
    with pytest.raises(GraphError):
        parse_graph("x 1\n")
    with pytest.raises(GraphError):
        parse_graph("")


def test_parse_matrix_roundtrip():
    q = QuadraticForm([[2, 1], [1, 2]])
    assert parse_matrix(write_matrix(q)) == q
    text = "2\n2 -1\n-1 5/3\n"
    q2 = parse_matrix(text)
    assert q2.matrix[1][1] == Fraction(5, 3)


def test_evaluate_target():
    assert abs(float(evaluate_target("6*zeta(3)")) - float(6 * zeta(3))) < 1e-12
    assert abs(float(evaluate_target("441/8*zeta(7)"))
               - float(Fraction(441, 8)) * float(zeta(7))) < 1e-9
    v = evaluate_target("(360*zeta2(5,3) + 1)*2")
    assert float(v) > 2
    assert abs(float(evaluate_target("pi^2/6")) - float(zeta(2))) < 1e-12
    with pytest.raises(ValueError):
        evaluate_target("__import__('os')")
    with pytest.raises(ValueError):
        evaluate_target("zeta(3); 1")


def test_evaluate_target_rejects_non_real_values():
    for bad in ("1/0", "(-1)^0.5", "zeta(1)", "2^10000"):
        with pytest.raises(ValueError):
            evaluate_target(bad)


@pytest.fixture
def files(tmp_path):
    g = tmp_path / "sunrise.g"
    g.write_text(SUNRISE_FILE)
    w3 = tmp_path / "w3.g"
    from periodforge.io import write_graph as wg

    w3.write_text(wg(wheel(3)))
    m = tmp_path / "hex.mat"
    m.write_text("2\n2 1\n1 2\n")
    dunce = tmp_path / "dunce.g"
    dunce.write_text(wg(dunce_graph()))
    tree = tmp_path / "path.g"
    tree.write_text(wg(Graph((0,) * 7,
                             tuple((i, i + 1) for i in range(1, 7)))))
    return {"sunrise": str(g), "w3": str(w3), "hex": str(m),
            "dunce": str(dunce), "tree": str(tree)}


def test_cli_psi(files, capsys):
    assert main(["psi", files["sunrise"]]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "x1*x2 + x1*x3 + x2*x3"


def test_cli_psi_json_roundtrip(files, capsys):
    assert main(["psi", files["sunrise"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psi"] == [[1, [1, 2]], [1, [1, 3]], [1, [2, 3]]]
    assert payload["manifest"]["command"] == "psi"


def test_cli_laplacian(files, capsys):
    assert main(["laplacian", files["sunrise"]]) == 0
    assert capsys.readouterr().out.splitlines() == ["[x1 + x2, x1]",
                                                    "[x1, x1 + x3]"]
    assert main(["laplacian", files["sunrise"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["laplacian"] == [["x1 + x2", "x1"], ["x1", "x1 + x3"]]
    assert payload["size"] == 2
    assert payload["manifest"]["command"] == "laplacian"


def test_cli_divergences(files, capsys):
    assert main(["divergences", files["sunrise"]]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1 2", "1 3", "2 3"]
    assert main(["divergences", files["w3"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subdivergence_free"] is True


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "set"])
def test_cli_pins_blas_threads_before_numpy_loads(files, preset):
    """``main`` sets one BLAS thread before a subcommand loads numpy, in a
    fresh interpreter; a value the caller set is kept."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import periodforge

    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(periodforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import json, os, sys\n"
            "seen = {}\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            f"            seen.update((v, os.environ.get(v)) for v in {_BLAS_VARS!r})\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from periodforge.cli import main\n"
            f"assert main(['divergences', {files['sunrise']!r}]) == 0\n"
            "print(json.dumps(seen))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"OPENBLAS_NUM_THREADS": preset or "1",
                    "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_cli_residue_target_pass(files, capsys):
    code = main(["residue", files["w3"], "--samples", "150000",
                 "--seed", "1", "--target", "6*zeta(3)", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(payload["z"]) <= 3
    assert payload["samples"] == 150000


def test_cli_residue_target_fail(files, capsys):
    code = main(["residue", files["w3"], "--samples", "40000",
                 "--seed", "1", "--target", "8*zeta(3)"])
    capsys.readouterr()
    assert code == 3


def test_cli_residue_divergent_graph(files, capsys):
    code = main(["residue", files["sunrise"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-projective" in err


def test_cli_residue_offers_no_sampler_choice(files, capsys):
    """Residues are sampled from the tropical measure only: the JSON
    estimate names no sampler, and argparse rejects ``--sampler``."""
    assert main(["residue", files["w3"], "--samples", "2000",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "sampler" not in payload
    with pytest.raises(SystemExit) as exc:
        main(["residue", files["w3"], "--sampler", "dirichlet"])
    assert exc.value.code == 2
    assert "--sampler" in capsys.readouterr().err


def test_cli_rejects_non_integer_zeta_argument(files, capsys):
    code = main(["residue", files["w3"], "--samples", "2000", "--seed", "1",
                 "--target", "6*zeta(2.5)"])
    assert code == 2
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["residue", "canonical"])
@pytest.mark.parametrize("target, message", [("1/0", "division by zero"),
                                             ("gamma(3)", "unsupported"),
                                             ("2^10000", "not a finite")],
                         ids=["division-by-zero", "unknown-function",
                              "past-float-range"])
def test_cli_rejects_bad_target_before_sampling(files, capsys, monkeypatch,
                                                command, target, message):
    ran = []
    # the subcommands import integrate from the engine when they run
    monkeypatch.setattr("periodforge.engine.integrate",
                        lambda *a, **k: ran.append(a))
    form = ["--form", "5"] if command == "canonical" else []
    code = main([command, files["w3"], *form, "--samples", "2000",
                 "--target", target])
    assert code == 2
    assert message in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("command", ["residue", "canonical"])
def test_cli_has_no_threads_option(files, capsys, command):
    """The engine runs in one thread, so argparse refuses ``--threads``."""
    form = ["--form", "5"] if command == "canonical" else []
    with pytest.raises(SystemExit) as exc:
        main([command, files["w3"], *form, "--samples", "2000",
              "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_loop_bound_names_allow_big(capsys):
    """Past the loop bound the error names the command-line remedy, not
    only the library's ``max_loops``."""
    assert main(["gc-homology", "--loops", "7"]) == 2
    assert "--allow-big" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["residue", "canonical"])
def test_cli_rejects_negative_seed_before_preprocessing(files, capsys,
                                                        monkeypatch, command):
    built = []
    monkeypatch.setattr("periodforge.engine.build_measure",
                        lambda *a: built.append(a))
    form = ["--form", "5"] if command == "canonical" else []
    code = main([command, files["w3"], *form, "--samples", "2000",
                 "--seed", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -1" in err
    assert built == []


@pytest.mark.parametrize("argv", [
    ["gc-homology", "--loops", "1"],
    ["residue", "{w3}", "--samples", "1"],
    ["residue", "{dunce}", "--samples", "2000"],
    ["canonical", "{tree}", "--form", "5", "--samples", "2000"],
    ["minvec", "{bad_matrix}"],
    ["minvec", "{zero_denominator}"],
    ["cell", "{zero_denominator}"],
    ["torelli", "{sunrise}", "--lengths", "1,x,1"],
    ["torelli", "{sunrise}", "--lengths", "1,1"],
    ["torelli", "{sunrise}", "--lengths", "1/0,1,1"],
], ids=["gc-loops", "residue-samples", "residue-divergent", "canonical-tree",
        "minvec-malformed", "minvec-zero-denominator", "cell-zero-denominator",
        "torelli-unparsable", "torelli-count", "torelli-zero-denominator"])
def test_cli_maps_layer_errors_to_exit_2(files, tmp_path, capsys, argv):
    """Each layer's error reaches main as a validation error, although the
    CLI imports that layer only inside the subcommand."""
    bad = tmp_path / "bad.mat"
    bad.write_text("2\n1 2 three 4\n")
    zero_den = tmp_path / "zero_den.mat"
    zero_den.write_text("2\n2 1\n1 1/0\n")
    paths = dict(files, bad_matrix=str(bad), zero_denominator=str(zero_den))
    code = main([a.format(**paths) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_non_positive_matrix_dimension(tmp_path, capsys):
    m = tmp_path / "bad.mat"
    for text in ("0\n", "-1\n7\n"):
        m.write_text(text)
        for command in ("minvec", "cell"):
            assert main([command, str(m)]) == 2
            assert "dimension" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["psi", "/definitely/not/here.g"]) == 2


def test_cli_manifest_reproducible(files, capsys):
    def run():
        main(["residue", files["w3"], "--samples", "30000", "--seed", "5",
              "--json"])
        payload = json.loads(capsys.readouterr().out)
        payload["manifest"].pop("wall_time_s")
        return payload

    assert run() == run()


def test_cli_gc_homology(files, capsys):
    assert main(["gc-homology", "--loops", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["homology"] == {}
    assert main(["gc-homology", "--loops", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["homology"] == {"0": 1}


def test_cli_stable(capsys):
    assert main(["stable", "--genus", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 7


def test_cli_minvec_cell(files, capsys):
    assert main(["minvec", files["hex"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert main(["cell", files["hex"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["generators"]) == 3


def test_cli_torelli(files, capsys):
    assert main(["torelli", files["sunrise"], "--lengths", "1,1,1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["positive_definite"] is True


def test_cli_canonical(files, capsys):
    code = main(["canonical", files["w3"], "--form", "5", "--samples",
                 "60000", "--seed", "2", "--target", "60*zeta(3)", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(payload["z"]) <= 3


def test_parse_graph_arbitrary_vertex_ids():
    text = "v 10\nv 20 1\nv 30\ne 1 10 20\ne 2 20 30\ne 3 30 10\n"
    g = parse_graph(text)
    assert g.nv == 3 and g.ne == 3
    assert g.weights == (0, 1, 0)
    assert g.edges == ((1, 2), (2, 3), (3, 1))


def test_rational_form_text_dump():
    from periodforge.forms import canonical_form_symbolic
    from periodforge.polynomials import generic_2x2

    f = canonical_form_symbolic(generic_2x2(), 3)
    text = f.to_text()
    assert "over det^2" in text
    assert text.count("dx") == 12  # four 3-component wedge keys


# A self-edge (5) and a pair of parallel edges (1, 2).
LOOPY_FILE = "v 1\nv 2\nv 3\ne 1 1 2\ne 2 1 2\ne 3 2 3\ne 4 3 1\ne 5 3 3\n"

K4_PSI = [[1, [1, 2, 4]], [1, [1, 2, 5]], [1, [1, 2, 6]], [1, [1, 3, 4]],
          [1, [1, 3, 5]], [1, [1, 3, 6]], [1, [1, 4, 6]], [1, [1, 5, 6]],
          [1, [2, 3, 4]], [1, [2, 3, 5]], [1, [2, 3, 6]], [1, [2, 4, 5]],
          [1, [2, 5, 6]], [1, [3, 4, 5]], [1, [3, 4, 6]], [1, [4, 5, 6]]]

GOLDEN = {
    ("psi", "k4"): (
        "x1*x2*x4 + x1*x2*x5 + x1*x2*x6 + x1*x3*x4 + x1*x3*x5 + x1*x3*x6"
        " + x1*x4*x6 + x1*x5*x6 + x2*x3*x4 + x2*x3*x5 + x2*x3*x6"
        " + x2*x4*x5 + x2*x5*x6 + x3*x4*x5 + x3*x4*x6 + x4*x5*x6\n",
        {"psi": K4_PSI}),
    ("laplacian", "k4"): (
        "[x1 + x2 + x4, x1, -x2]\n"
        "[x1, x1 + x3 + x5, x3]\n"
        "[-x2, x3, x2 + x3 + x6]\n",
        {"laplacian": [["x1 + x2 + x4", "x1", "-x2"],
                       ["x1", "x1 + x3 + x5", "x3"],
                       ["-x2", "x3", "x2 + x3 + x6"]], "size": 3}),
    ("psi", "loopy"): (
        "x1*x2*x5 + x1*x3*x5 + x1*x4*x5 + x2*x3*x5 + x2*x4*x5\n",
        {"psi": [[1, [1, 2, 5]], [1, [1, 3, 5]], [1, [1, 4, 5]],
                 [1, [2, 3, 5]], [1, [2, 4, 5]]]}),
    ("laplacian", "loopy"): (
        "[x1 + x2, x1, 0]\n"
        "[x1, x1 + x3 + x4, 0]\n"
        "[0, 0, x5]\n",
        {"laplacian": [["x1 + x2", "x1", "0"], ["x1", "x1 + x3 + x4", "0"],
                       ["0", "0", "x5"]], "size": 3}),
}


@pytest.mark.parametrize("command, graph", sorted(GOLDEN))
def test_cli_psi_laplacian_golden_output(tmp_path, capsys, command, graph):
    """psi and laplacian print the same bytes as text and as JSON (the
    wall time aside) as the reference output pinned here."""
    from periodforge import __version__
    from periodforge.graphs import complete

    path = tmp_path / f"{graph}.g"
    path.write_text(write_graph(complete(4)) if graph == "k4" else LOOPY_FILE)
    text, payload = GOLDEN[command, graph]
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out == text
    assert main([command, str(path), "--json"]) == 0
    out = capsys.readouterr().out
    manifest = {"arguments": {"graph": str(path), "json": True},
                "command": command, "version": __version__,
                "wall_time_s": json.loads(out)["manifest"]["wall_time_s"]}
    assert out == json.dumps({**payload, "manifest": manifest}, indent=2,
                             sort_keys=True) + "\n"
