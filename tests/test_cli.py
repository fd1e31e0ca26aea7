import ast
import hashlib
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import netclass
from netclass import cli
from netclass.cli import main
from netclass.errors import BudgetExceededError, NotConnectedError, ParseError
from netclass.generators import complete_multipartite, moon_moser, random_tree
from netclass.plb import plb_constant, plb_diagnostics

from conftest import csr_star, recursion_headroom

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

    def test_cliques_enumerate_pinned_on_community(self, capsys, tmp_path,
                                                   monkeypatch):
        # perfbench's community graph at seed 1, 68,840 maximal cliques;
        # the digest was taken while cliques were still kept as tuples
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        f = tmp_path / "community.txt"
        f.write_bytes(workloads.snap_text(workloads.generate("community", 1)))
        assert main(["cliques", str(f), "--enumerate"]) == 0
        out = capsys.readouterr().out.encode()
        assert out.count(b"\n") == 68840
        assert hashlib.sha256(out).hexdigest() == ("e0e237d87130bb0e6dc2526b5b"
                                                   "eda53b70c4d04254048741e914"
                                                   "c65a4a28623c")

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

    def test_plb_tail_csv_near_gamma_one(self, capsys, tmp_path):
        # the tail's d_max ratio divides by n^(1/(gamma-1)), beyond float
        # range at n = 200 and gamma = 1.001
        g = random_tree(200, seed=3)
        f = tmp_path / "tree.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in g.edge_array().tolist()))
        target = tmp_path / "tail.csv"
        assert main(["plb", str(f), "--gamma", "1.001",
                     "--tail-csv", str(target)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        tail = plb_diagnostics(g, plb_constant(g.degree_distribution(),
                                               1.001)).tail
        assert target.read_text().splitlines()[1:] == [
            f"{p.k},{p.tail_mass},{p.reference:.10g},{p.ratio:.10g}"
            for p in tail]

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

    @pytest.mark.parametrize("argv", [["--rng-seed", "-1"],
                                      ["--samples", "0", "--rng-seed", "-1"]])
    def test_bct_negative_seed_exit_1(self, capsys, k4_file, argv):
        # refused whether or not any pair is sampled
        assert main(["bct", *argv, k4_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "netclass: rng_seed must be non-negative\n"

    @pytest.mark.parametrize("seed", [0, 2 ** 64 + 5])
    @pytest.mark.parametrize("samples", ["0", "50"])
    def test_bct_seed_range_accepted(self, capsys, k4_file, seed, samples):
        doc = run_json(capsys, ["bct", "--samples", samples, "--rng-seed",
                                str(seed), k4_file])
        assert doc["rng_seed"] == seed
        assert doc["sampled_pairs"] == int(samples)

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

    @pytest.mark.parametrize("error, message, attrs", [
        (ParseError("non-integer vertex id", 7),
         "line 7: non-integer vertex id", {"line_no": 7}),
        (BudgetExceededError(12, "maximal cliques"),
         "maximal cliques budget of 12 exceeded", {"budget": 12}),
        (NotConnectedError(3), "graph is disconnected (3 components); "
         "restrict to the largest component first", {"n_components": 3}),
    ], ids=["parse", "budget", "not_connected"])
    def test_errors_survive_pickling(self, error, message, attrs):
        # a multiprocessing worker hands its exception back pickled
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(error) == str(back) == message
        assert back.args == error.args
        for name, value in attrs.items():
            assert getattr(back, name) == value

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

    def test_unknown_dataset_exit_1(self, capsys, tmp_path):
        # fetch_dataset is the one place that checks a dataset name, and
        # it refuses before it creates the cache directory
        cache = tmp_path / "c"
        assert main(["fetch", "nope", "--cache-dir", str(cache)]) == 1
        assert capsys.readouterr().err.startswith(
            "netclass: unknown dataset 'nope'; known: ")
        assert not cache.exists()

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

    def test_plb_bound_overflow_exit_1(self, capsys, tmp_path):
        # on a 6-vertex path at gamma 1022 every budget is a normal
        # float, but c * n * bound_sum of bucket [1, 2] is not finite
        f = tmp_path / "path6.txt"
        f.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n")
        message = ("power-law bound of degree bucket [1, 2] overflows; "
                   "lower gamma or shift")
        assert main(["plb", str(f), "--gamma", "1022"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"netclass: {message}\n"
        doc = run_json(capsys, ["report", str(f), "--gamma", "1022"])
        assert doc["phases"].pop("plb") == {"status": "error",
                                            "reason": message}
        assert {phase["status"] for phase in doc["phases"].values()} == {"ok"}

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

    def test_memory_error_exit_1(self, capsys, monkeypatch, k4_file):
        # stands in for an allocation beyond memory, such as the samples
        # of `bct --samples 1000000000000`: whether a real one fails at
        # once depends on the host's overcommit policy
        def exhausted(g, sample_pairs, rng_seed):
            raise MemoryError("Unable to allocate 7.28 TiB")
        monkeypatch.setattr(cli, "bct_properties_report", exhausted)
        assert main(["bct", k4_file, "--samples", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "netclass: out of memory\n"

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

    @staticmethod
    def _python(code: str, *args: str, **env_vars) -> str:
        """Run ``python -c code *args`` on this checkout,
        OPENBLAS_NUM_THREADS unset unless given; return its stdout."""
        src = str(Path(netclass.__file__).resolve().parents[1])
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.update(env_vars)
        run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return run.stdout

    def test_cli_asks_for_one_blas_thread(self, k4_file):
        # importing the CLI loads no NumPy; a subcommand loads it after
        # the CLI set the default, so NumPy's BLAS starts no worker
        # threads
        code = ("import os, sys, netclass.cli; "
                "print('numpy' in sys.modules); "
                "netclass.cli.main(['triangle', sys.argv[1]]); "
                "print(os.environ['OPENBLAS_NUM_THREADS'], "
                "'numpy' in sys.modules, "
                "len(os.listdir('/proc/self/task')) "
                "if os.path.isdir('/proc/self/task') else 1)")
        lines = self._python(code, k4_file).splitlines()
        assert lines[0] == "False"
        assert json.loads("".join(lines[1:-1]))["t"] == 4
        assert lines[-1].split() == ["1", "True", "1"]

    def test_cli_keeps_a_user_blas_setting(self):
        code = ("import os, netclass.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert self._python(code, OPENBLAS_NUM_THREADS="2").split() == ["2"]

    def test_library_import_leaves_environment_alone(self):
        # import netclass loads no NumPy; the submodules load it on
        # first use and never touch os.environ
        code = ("import os, sys, netclass; "
                "print('numpy' in sys.modules); "
                "g = netclass.Graph.from_edges([(0, 1)]); "
                "print('numpy' in sys.modules, "
                "'OPENBLAS_NUM_THREADS' in os.environ)")
        assert self._python(code).split() == ["False", "True", "False"]

    def test_every_export_lives_in_its_home_module(self):
        # the lazy name map must follow any name a refactor moves or drops
        for name in netclass.__all__:
            home = f"netclass.{netclass._HOME[name]}"
            assert getattr(netclass, name).__module__ == home, name

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

    def test_report_phases_match_subcommands(self, capsys, moonmoser12_file):
        # the closure and curve phases call the public functions the
        # subcommands call
        for argv in (["cliques"], ["triangle"], ["tkf"], ["plb"],
                     ["diameter"], ["diameter", "--exact"], ["bct"]):
            run_json(capsys, [*argv, moonmoser12_file])
        phases = run_json(capsys, ["report", moonmoser12_file])["phases"]
        closure = run_json(capsys, ["closure", moonmoser12_file])
        curve = run_json(capsys, ["curve", moonmoser12_file])
        assert phases["closure"] == {"status": "ok", "c": closure["c"],
                                     "weak_c": closure["weak_c"]}
        rows = [line.split(",") for line in curve["csv"].splitlines()[1:6]]
        assert phases["curve"] == {
            "status": "ok", "edge_density": curve["edge_density"],
            "first_rates": {k: int(c) / int(p) for k, p, c, _ in rows}}

    def test_closure_memory_guard_exit_1(self, capsys, monkeypatch,
                                         k4_file):
        # K_{1,10^6} as the loaded graph; its 5 * 10^11 pairs are refused
        # before any block is walked
        from netclass import closure, graph
        star = csr_star(10 ** 6)
        monkeypatch.setattr(cli, "load_edge_list", lambda path, return_stats:
                            (star, graph.LoadStats(star.m, 0, 0)))

        def no_walk(g):
            raise AssertionError("a block was walked")
        monkeypatch.setattr(closure, "_pair_blocks", no_walk)
        assert main(["closure", k4_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("netclass: pair state for up to 499999500000 "
                              "vertex pairs")

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


# the netclass modules every run loads: the package, cli and errors
FRONT_END = {"netclass", "netclass.cli", "netclass.errors"}
SUBCOMMAND_MODULES = [
    (["closure"], {"graph", "closure"}),
    (["cliques"], {"graph", "cliques"}),
    (["cliques", "--count-all"], {"graph", "cliques"}),
    (["triangle"], {"graph", "cliques", "triangles"}),
    (["tkf"], {"graph", "triangles"}),
    (["plb"], {"graph", "plb"}),
    (["diameter", "--largest-cc"], {"graph", "metric"}),
    (["curve"], {"graph"}),
    (["diameter", "--exact", "--largest-cc"], {"graph", "metric"}),
    (["bct", "--largest-cc"], {"graph", "metric"}),
]
# the names perfbench's traced run wraps on netclass.cli, each with a
# subcommand that calls it and the module it comes from
TRACED_CLI_CALLS = [
    ("load_edge_list", ["closure"], "graph"),
    ("weak_closure_number", ["closure"], "closure"),
    ("enumerate_maximal_cliques", ["cliques"], "cliques"),
    ("triangle_count_oriented", ["triangle"], "triangles"),
    ("tightly_knit_decomposition", ["tkf"], "triangles"),
    ("fit_gamma", ["plb"], "plb"),
    ("two_sweep", ["diameter"], "metric"),
    ("eccentricities", ["diameter", "--exact"], "metric"),
    ("bct_properties_report", ["bct"], "metric"),
    ("closure_rate_curve", ["curve"], "graph"),
]


class TestStartUp:
    """A run loads the modules its subcommand calls and no others."""

    # runs main on each file given after '--', then prints the loaded
    # modules as the last stdout line
    CODE = ("import json, sys, netclass.cli; "
            "cut = sys.argv.index('--'); "
            "codes = [netclass.cli.main([*sys.argv[1:cut], f]) "
            "for f in sys.argv[cut + 1:]]; "
            "print(json.dumps([codes, sorted(sys.modules)]))")

    @staticmethod
    def _loaded(code: str, *args: str) -> tuple[list, set]:
        out = TestContracts._python(code, *args)
        codes, modules = json.loads(out.splitlines()[-1])
        return codes, set(modules)

    @pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES,
                             ids=[" ".join(a) for a, _ in SUBCOMMAND_MODULES])
    def test_subcommand_loads_its_modules(self, k4_file, moonmoser12_file,
                                          argv, modules):
        codes, loaded = self._loaded(self.CODE, *argv, "--", k4_file,
                                     moonmoser12_file)
        assert codes == [0, 0]
        assert {m for m in loaded if m.startswith("netclass")} == \
            FRONT_END | {f"netclass.{m}" for m in modules}
        assert "numpy" in loaded
        assert "numpy.ma" not in loaded

    def test_version_loads_no_numpy(self):
        code = ("import json, sys, netclass.cli\n"
                "try:\n"
                "    netclass.cli.main(['--version'])\n"
                "except SystemExit as exc:\n"
                "    print(json.dumps([[exc.code], sorted(sys.modules)]))\n")
        codes, loaded = self._loaded(code)
        assert codes == [0]
        assert "numpy" not in loaded
        assert "netclass.graph" not in loaded
        assert "netclass.datasets" not in loaded
        assert "dataclasses" not in loaded

    def test_unknown_name_is_an_attribute_error(self):
        assert not hasattr(cli, "no_such_function")

    @pytest.mark.parametrize("name, argv, home", TRACED_CLI_CALLS,
                             ids=[name for name, _, _ in TRACED_CLI_CALLS])
    def test_wrapper_on_cli_is_called(self, capsys, monkeypatch, k4_file,
                                      name, argv, home):
        function = getattr(importlib.import_module(f"netclass.{home}"), name)
        assert getattr(cli, name) is function
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
        run_json(capsys, [*argv, k4_file])
        assert calls == [name]
