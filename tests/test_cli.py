import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netclass
from netclass import cli
from netclass.cli import main
from netclass.generators import complete_multipartite, moon_moser

from conftest import recursion_headroom

K4_TEXT = "# k4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def k4_file(tmp_path):
    f = tmp_path / "k4.txt"
    f.write_text(K4_TEXT)
    return str(f)


@pytest.fixture
def moonmoser12_file(tmp_path):
    g = moon_moser(12)
    lines = [f"{u} {v}" for u, v in g.edge_array().tolist()]
    f = tmp_path / "mm12.txt"
    f.write_text("\n".join(lines) + "\n")
    return str(f)


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out, parse_constant=_reject_constant)


class TestSubcommands:
    def test_closure(self, capsys, k4_file):
        doc = run_json(capsys, ["closure", k4_file])
        assert doc["c"] == 1
        assert doc["weak_c"] == 1
        assert doc["n"] == 4 and doc["m"] == 6
        assert doc["schema_version"] == 1
        assert doc["dataset"]["raw_edge_lines"] == 6

    def test_triangle(self, capsys, k4_file):
        doc = run_json(capsys, ["triangle", k4_file])
        assert doc["t"] == 4
        assert doc["w"] == 12
        assert doc["tau"] == 1.0

    def test_cliques_count_default(self, capsys, moonmoser12_file):
        doc = run_json(capsys, ["cliques", moonmoser12_file, "--count"])
        assert doc["maximal_clique_count"] == 81

    def test_cliques_max(self, capsys, k4_file):
        doc = run_json(capsys, ["cliques", k4_file, "--max"])
        assert doc["maximum_clique"] == [0, 1, 2, 3]
        assert doc["maximum_clique_size"] == 4

    def test_cliques_count_all(self, capsys, k4_file):
        doc = run_json(capsys, ["cliques", k4_file, "--count-all"])
        assert doc["all_cliques_count"] == 15  # 4 + 6 + 4 + 1

    def test_cliques_enumerate_lines(self, capsys, tmp_path):
        f = tmp_path / "p3.txt"
        f.write_text("10 20\n20 30\n")
        code = main(["cliques", str(f), "--enumerate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["10 20", "20 30"]

    def test_tkf(self, capsys, k4_file):
        doc = run_json(capsys, ["tkf", k4_file])
        assert doc["captured_fraction"] == 1.0
        assert doc["clusters"][0]["vertices"] == [0, 1, 2, 3]
        assert doc["clusters"][0]["radius"] <= 1
        assert doc["epsilon"] == 0.25

    def test_plb(self, capsys, k4_file):
        doc = run_json(capsys, ["plb", k4_file, "--gamma", "2.5"])
        assert doc["gamma"] == 2.5
        assert doc["c"] > 0
        assert all(b["slack"] <= 1.0 for b in doc["buckets"])

    def test_plb_tail_csv(self, capsys, k4_file, tmp_path):
        target = tmp_path / "tail.csv"
        doc = run_json(capsys, ["plb", k4_file, "--gamma", "2.5",
                                "--tail-csv", str(target)])
        lines = target.read_text().splitlines()
        assert lines[0] == "k,tail_mass,reference,ratio"
        assert len(lines) >= 2

    def test_diameter_two_sweep_and_exact(self, capsys, tmp_path):
        f = tmp_path / "p5.txt"
        f.write_text("0 1\n1 2\n2 3\n3 4\n")
        doc = run_json(capsys, ["diameter", str(f)])
        assert doc["diameter_lower_bound"] == 4
        doc = run_json(capsys, ["diameter", str(f), "--exact"])
        assert doc["diameter"] == 4

    def test_diameter_disconnected_needs_flag(self, capsys, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("0 1\n2 3\n")
        assert main(["diameter", str(f)]) == 1
        assert "disconnected" in capsys.readouterr().err
        doc = run_json(capsys, ["diameter", str(f), "--largest-cc"])
        assert doc["component_n"] == 2

    def test_bct_seed_recorded(self, capsys, k4_file):
        doc = run_json(capsys, ["bct", k4_file, "--samples", "50",
                                "--rng-seed", "9"])
        assert doc["rng_seed"] == 9
        assert doc["property1_fraction"] == 1.0

    def test_bct_negative_samples_exit_1(self, capsys, k4_file):
        assert main(["bct", k4_file, "--samples", "-5", "--largest-cc"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("netclass: sample_pairs must be "
                                "non-negative\n")

    @pytest.mark.parametrize("text, n", [("0 1\n", 2), ("5 5\n", 1)])
    def test_bct_without_finite_tau_emits_null(self, capsys, tmp_path,
                                               text, n):
        f = tmp_path / "g.txt"
        f.write_text(text)
        doc = run_json(capsys, ["bct", str(f)])
        assert doc["level_average"] is None
        assert doc["infinite_tau_sources"] == n

    def test_curve_embedded_and_file(self, capsys, k4_file, tmp_path):
        doc = run_json(capsys, ["curve", k4_file])
        assert doc["csv"].startswith("k,pairs,closed,rate")
        assert doc["edge_density"] == 1.0
        target = tmp_path / "c.csv"
        doc = run_json(capsys, ["curve", k4_file, "--csv", str(target)])
        assert target.read_text().startswith("k,pairs,closed,rate")

    def test_report_all_phases(self, capsys, k4_file):
        doc = run_json(capsys, ["report", k4_file])
        assert set(doc["phases"]) == {"closure", "cliques", "triangle", "tkf",
                                      "plb", "diameter", "curve"}
        assert all(p["status"] == "ok" for p in doc["phases"].values())
        assert "timings_seconds" not in doc

    def test_report_budget_marks_skipped(self, capsys, moonmoser12_file):
        doc = run_json(capsys, ["report", moonmoser12_file,
                                "--budget-seconds", "1e-4"])
        statuses = {p["status"] for p in doc["phases"].values()}
        assert "skipped" in statuses

    def test_report_timings_opt_in(self, capsys, k4_file):
        doc = run_json(capsys, ["report", k4_file, "--timings"])
        assert set(doc["timings_seconds"]) == set(doc["phases"])


class TestContracts:
    def test_byte_identical_reruns(self, capsys, k4_file):
        outputs = []
        for _ in range(2):
            assert main(["report", k4_file]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for _ in range(2):
            assert main(["bct", k4_file, "--samples", "100",
                         "--rng-seed", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[2] == outputs[3]

    def test_out_flag_writes_file(self, tmp_path, capsys, k4_file):
        target = tmp_path / "doc.json"
        assert main(["triangle", k4_file, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["t"] == 4

    def test_parse_error_exit_1_with_line(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 1\nnope\n")
        assert main(["closure", str(f)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [b"0 1\n99999999999999999999999 3\n",
                                         b"0 1\n\xff 3\n"])
    def test_bad_id_or_bytes_exit_1_with_line(self, capsys, tmp_path, payload):
        f = tmp_path / "bad.txt"
        f.write_bytes(payload)
        assert main(["closure", str(f)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_missing_file_exit_1(self, capsys):
        assert main(["closure", "/nonexistent/g.txt"]) == 1

    def test_usage_error_exit_2(self, k4_file):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", k4_file])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["closure"])
        assert exc.value.code == 2

    def test_budget_error_exit_1(self, capsys, moonmoser12_file):
        assert main(["cliques", moonmoser12_file, "--budget", "5"]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--max"], ["--count-all"],
                                      ["--enumerate"]])
    def test_negative_clique_budget_exit_1(self, capsys, k4_file, mode):
        assert main(["cliques", k4_file, "--budget", "-5", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "netclass: budget must be non-negative\n"

    def test_report_negative_clique_budget(self, capsys, k4_file):
        doc = run_json(capsys, ["report", k4_file, "--clique-budget", "-3"])
        assert doc["phases"]["cliques"] == {
            "status": "error", "reason": "budget must be non-negative"}
        assert doc["phases"]["closure"]["status"] == "ok"

    @pytest.mark.parametrize("flags, message", [
        (["--gamma", "inf"], "gamma and shift must be finite"),
        (["--gamma", "nan"], "gamma and shift must be finite"),
        (["--shift", "inf"], "gamma and shift must be finite"),
        (["--shift", "nan"], "gamma and shift must be finite"),
        (["--gamma", "1e308"], "power-law budget of degree bucket [2, 4] "
                               "underflows; lower gamma or shift"),
        (["--gamma", "2", "--shift", "1e308"],
         "power-law budget of degree bucket [1, 2] underflows; lower gamma "
         "or shift"),
    ])
    def test_plb_domain_error_exit_1(self, capsys, k4_file, flags, message):
        assert main(["plb", k4_file, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"netclass: {message}\n"
        doc = run_json(capsys, ["report", k4_file, *flags])
        assert doc["phases"]["plb"] == {"status": "error", "reason": message}
        assert doc["phases"]["triangle"]["status"] == "ok"

    @pytest.fixture
    def deep_clique_file(self, tmp_path):
        # 65 parts of two: maximal cliques of 65 vertices
        g = complete_multipartite([2] * 65)
        f = tmp_path / "cocktail.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in g.edge_array().tolist()))
        return str(f)

    @pytest.mark.parametrize("mode", [[], ["--max"], ["--count-all"],
                                      ["--enumerate"]])
    def test_deep_clique_recursion_exit_1(self, capsys, deep_clique_file,
                                          mode):
        with recursion_headroom(50):
            code = main(["cliques", deep_clique_file, *mode])
            limit = sys.getrecursionlimit()
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("netclass: clique search exceeds the Python "
                                f"recursion limit of {limit}\n")

    def test_report_deep_clique_recursion(self, capsys, deep_clique_file):
        with recursion_headroom(50):
            doc = run_json(capsys, ["report", deep_clique_file])
        assert doc["phases"]["cliques"]["status"] == "error"
        assert "recursion limit" in doc["phases"]["cliques"]["reason"]
        assert doc["phases"]["triangle"]["status"] == "ok"

    def test_non_finite_float_exit_1(self, capsys, monkeypatch, k4_file):
        monkeypatch.setattr(cli, "_cmd_triangle", lambda g, args: {"tau": math.inf})
        assert main(["triangle", k4_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("netclass: Out of range float values")

    @pytest.mark.parametrize("value", ["inf", "1e300", "nan", "-1", "0"])
    def test_report_budget_seconds_usage_error(self, capsys, k4_file, value):
        with pytest.raises(SystemExit) as exc:
            main(["report", k4_file, "--budget-seconds", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget-seconds" in captured.err
        assert "Traceback" not in captured.err

    def test_empty_graph_clique_message(self, capsys, tmp_path):
        f = tmp_path / "comments.txt"
        f.write_text("# no edges\n# at all\n")
        assert main(["cliques", str(f), "--max"]) == 1
        message = "maximum clique of the empty graph is undefined"
        assert capsys.readouterr().err == f"netclass: {message}\n"
        doc = run_json(capsys, ["report", str(f)])
        assert doc["phases"]["cliques"] == {"status": "error",
                                            "reason": message}

    def test_start_up_skips_scipy_stats(self, k4_file):
        # scipy.stats costs most of the CLI's import time; the metric
        # layer computes its one rank correlation with NumPy instead, and
        # the pair table behind closure and curve is NumPy only;
        # urllib.request (with http.client and ssl) is imported only
        # when fetch downloads
        src = str(Path(netclass.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import netclass.cli, sys; "
                "code = sys.argv[1:] and netclass.cli.main(sys.argv[1:]); "
                "sys.exit(code or any(m == 'scipy' or m.startswith('scipy.') "
                "or m == 'urllib.request' for m in sys.modules))")
        # start-up alone, then the two subcommands that build a pair table
        for argv in ([], ["closure", k4_file], ["curve", k4_file]):
            run = subprocess.run([sys.executable, "-c", code, *argv],
                                 env=env, capture_output=True, timeout=120)
            assert run.returncode == 0, (argv, run.stderr)

    def test_no_module_imports_scipy(self):
        # NumPy is the only runtime dependency; SciPy stays a test oracle
        for path in Path(netclass.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n == "scipy" or n.startswith("scipy.")
                               for n in names), (path.name, node.lineno)

    def test_report_builds_one_pair_table(self, capsys, monkeypatch,
                                          k4_file):
        from netclass.graph import pair_table
        calls = []

        def counted(g):
            calls.append(g.n)
            return pair_table(g)
        # patch every module that bound the name at import
        for name, module in list(sys.modules.items()):
            if name.startswith("netclass") and \
                    getattr(module, "pair_table", None) is pair_table:
                monkeypatch.setattr(module, "pair_table", counted)
        doc = run_json(capsys, ["report", k4_file])
        assert calls == [4]
        assert doc["phases"]["closure"] == {"status": "ok", "c": 1,
                                            "weak_c": 1}
        assert doc["phases"]["curve"]["status"] == "ok"

    @pytest.mark.parametrize("argv", [["diameter"], ["diameter", "--exact"],
                                      ["bct", "--largest-cc"]])
    def test_empty_graph_metric_message(self, capsys, tmp_path, argv):
        f = tmp_path / "comments.txt"
        f.write_text("# no edges\n")
        assert main([*argv, str(f)]) == 1
        assert capsys.readouterr().err == \
            "netclass: the graph has no vertices\n"
        doc = run_json(capsys, ["report", str(f)])
        assert doc["phases"]["diameter"] == {
            "status": "error", "reason": "the graph has no vertices"}
