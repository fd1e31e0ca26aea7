import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netclass
from netclass.cli import main
from netclass.generators import moon_moser

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


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


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

    def test_start_up_skips_scipy_stats(self):
        # scipy.stats costs most of the CLI's import time; the metric
        # layer computes its one rank correlation with NumPy instead, and
        # scipy.sparse is imported only when a pair table is built;
        # urllib.request (with http.client and ssl) only when fetch
        # downloads
        src = str(Path(netclass.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import netclass.cli, sys; "
                "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
                "or m == 'urllib.request' for m in sys.modules))")
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120).returncode == 0
