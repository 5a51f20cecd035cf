"""Command line behavior: wiring, artifacts, exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

from brun import tables
from brun.cli import main

FIXTURE_TABLE = "tests/fixtures/census_excerpt.txt"
CERTIFY_NUMERIC = [
    "certify",
    "--x0", "4e18",
    "--pi2", "3023463123235320",
    "--brun-lo", "1.840503",
    "--brun-hi", "1.840518",
]

CERTIFY_TABLES = [
    "certify",
    "--x0", "1001e12",
    "--tables", "tests/fixtures",
    "--base-x", "1e15",
    "--base-lo", "1.83",
    "--base-hi", "1.84",
    "--width-target", "1e-3",
]


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    monkeypatch.delenv("BRUN_TABLE_DIR", raising=False)


@pytest.fixture()
def table_dir(tmp_path):
    src = open(FIXTURE_TABLE).read()
    (tmp_path / "excerpt.txt").write_text(src)
    return str(tmp_path)


class TestUsage:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "brun" in capsys.readouterr().out

    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required(self):
        assert main(["certify"]) == 1

    def test_bad_numbers(self):
        assert main(["census", "--limit", "-5"]) == 1
        assert main(["census", "--limit", "2.5"]) == 1
        assert main(["scan-c", "--alpha", "abc"]) == 1
        assert main(["project", "--ks", "a,b"]) == 1
        assert main(CERTIFY_NUMERIC + ["--cutoff-u", "inf"]) == 1
        assert main(CERTIFY_NUMERIC + ["--width-target", "inf"]) == 1
        assert main(["project", "--ks", "19", "--b-assumed", "inf"]) == 1


class TestCensus:
    def test_known_count(self, capsys):
        assert main(["census", "--limit", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "pi2 = 8169" in out
        assert "brun_partial in [1.71077693080" in out

    def test_segment_size_below_two_is_a_usage_error(self, capsys):
        for size in ("1", "0", "-3"):
            assert main(["census", "--limit", "100", "--segment-size", size]) == 1
            assert "--segment-size: must be at least 2" in capsys.readouterr().err
        assert main(["census", "--limit", "100", "--segment-size", "2"]) == 0
        assert "pi2 = 8" in capsys.readouterr().out

    def test_emit_table(self, tmp_path, capsys):
        path = tmp_path / "row.txt"
        assert main(["census", "--limit", "1000000", "--emit-table", str(path)]) == 0
        assert path.read_text() == "1d6  8169\n"

    def test_artifact_thread_invariant(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["census", "--limit", "50000", "--json"]
        assert main(base + [str(a), "--threads", "1"]) == 0
        assert main(base + [str(b), "--threads", "3", "--segment-size", "4096"]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["pi2"] == 705
        assert "version" in payload


class TestExtend:
    def test_fixture_chain(self, table_dir, capsys):
        rc = main([
            "extend",
            "--tables", table_dir,
            "--base-x", "1000000000000000",
            "--base-lo", "1.83",
            "--base-hi", "1.84",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "extended to 1001000000000000" in out
        assert "pi2 = 1178316017996" in out

    def test_artifact_hashes_inputs(self, table_dir, tmp_path):
        artifact = tmp_path / "extend.json"
        rc = main([
            "extend",
            "--tables", table_dir,
            "--base-x", "1000000000000000",
            "--base-lo", "1.83",
            "--base-hi", "1.84",
            "--json", str(artifact),
        ])
        assert rc == 0
        payload = json.loads(artifact.read_text())
        hashes = payload["inputs"]["input_files"]
        assert set(hashes) == {"excerpt.txt"}
        data = (tmp_path / "excerpt.txt").read_bytes()
        assert hashes["excerpt.txt"] == hashlib.sha256(data).hexdigest()

    def test_bad_prediction_names_file_and_line(self, table_dir, capsys):
        with open(f"{table_dir}/late.txt", "w") as f:
            f.write("# more rows\n1002d12  1179421000000  1e\n")
        rc = main([
            "extend",
            "--tables", table_dir,
            "--base-x", "1000000000000000",
            "--base-lo", "1.83",
            "--base-hi", "1.84",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "late.txt, line 2: malformed census table line" in err

    def test_requires_tables(self, monkeypatch, capsys):
        monkeypatch.delenv("BRUN_TABLE_DIR", raising=False)
        assert main(["extend"]) == 1
        assert "BRUN_TABLE_DIR" in capsys.readouterr().err

    def test_env_var_default(self, table_dir, monkeypatch, capsys):
        monkeypatch.setenv("BRUN_TABLE_DIR", table_dir)
        rc = main([
            "extend",
            "--base-x", "1000000000000000",
            "--base-lo", "1.83",
            "--base-hi", "1.84",
        ])
        assert rc == 0
        assert "extended to" in capsys.readouterr().out

    def test_missing_base_row(self, table_dir, capsys):
        rc = main([
            "extend",
            "--tables", table_dir,
            "--base-x", "999000000000000",
            "--base-lo", "1.83",
            "--base-hi", "1.84",
        ])
        assert rc == 2
        assert "base threshold" in capsys.readouterr().err


class TestScanAndProduct:
    def test_scan_c(self, tmp_path, capsys):
        artifact = tmp_path / "scan.json"
        rc = main(["scan-c", "--alpha", "2/5", "--xmax", "2000", "--json", str(artifact)])
        assert rc == 0
        assert "c(2/5) <=" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["inputs"]["alpha"] == "2/5"
        assert float(payload["bound"]["hi"]) < 1.0503

    def test_h_bound(self, tmp_path, capsys):
        artifact = tmp_path / "h.json"
        rc = main(["h-bound", "--cutoff", "100000", "--json", str(artifact)])
        assert rc == 0
        assert "H <= " in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert float(payload["h"]["hi"]) > float(payload["h"]["lo"]) > 0


class TestCertify:
    def test_numeric_fixtures(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = main(CERTIFY_NUMERIC + ["--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "certified: " in text
        payload = json.loads(out.read_text())
        assert payload["rigorous"] is True
        upper = float(payload["result"]["upper"])
        assert 2.2880 <= upper <= 2.288514
        assert float(payload["result"]["lower"]) <= 1.840503
        assert payload["inputs"]["x0"] == 4 * 10**18
        assert payload["params"]["alpha"] == "2/5"

    def test_reruns_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(CERTIFY_NUMERIC + ["--out", str(a)]) == 0
        assert main(CERTIFY_NUMERIC + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_table_route_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(CERTIFY_TABLES + ["--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        result = json.loads(a.read_text())["result"]
        assert result["lower_hex"] == "0x1.d47b0661502bcp+0"
        assert result["upper_hex"] == "0x1.314a1143324bap+1"

    def test_table_route_must_reach_x0(self, table_dir, capsys):
        rc = main([
            "certify",
            "--x0", "4e18",
            "--tables", table_dir,
            "--base-x", "1000000000000000",
            "--base-lo", "1.83",
            "--base-hi", "1.84",
        ])
        assert rc == 2
        assert "not at x0" in capsys.readouterr().err

    def test_table_route_merges_once(self, table_dir, tmp_path, monkeypatch):
        calls = []
        merge = tables._merge

        def counting_merge(entries):
            calls.append(1)
            return merge(entries)

        monkeypatch.setattr(tables, "_merge", counting_merge)
        out = tmp_path / "cert.json"
        rc = main([
            "certify",
            "--x0", "1001e12",
            "--tables", table_dir,
            "--base-x", "1000000000000000",
            "--base-lo", "1.83",
            "--base-hi", "1.84",
            "--width-target", "1e-3",
            "--out", str(out),
        ])
        assert rc == 0
        assert len(calls) == 1
        payload = json.loads(out.read_text())
        assert payload["inputs"]["pi2_x0"] == 1178316017996
        data = (tmp_path / "excerpt.txt").read_bytes()
        assert payload["inputs"]["input_files"] == {
            "excerpt.txt": hashlib.sha256(data).hexdigest()
        }

    def test_rejects_mixed_sources(self, table_dir):
        rc = main(CERTIFY_NUMERIC + ["--tables", table_dir])
        assert rc == 1

    def test_rejects_partial_triple(self, monkeypatch):
        monkeypatch.delenv("BRUN_TABLE_DIR", raising=False)
        rc = main(["certify", "--x0", "4e18", "--pi2", "10"])
        assert rc == 1

    def test_requires_some_source(self, monkeypatch, capsys):
        monkeypatch.delenv("BRUN_TABLE_DIR", raising=False)
        assert main(["certify", "--x0", "4e18"]) == 1
        assert "censused partial sum" in capsys.readouterr().err

    def test_computation_error_exit(self, capsys):
        rc = main(CERTIFY_NUMERIC + ["--cutoff-u", "40"])
        assert rc == 2
        assert "cutoff_u" in capsys.readouterr().err

    def test_improved_flag(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(CERTIFY_NUMERIC + ["--improved", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["inputs"]["improved"] is True
        assert float(payload["params"]["sqrt_coefficient"]["hi"]) < 1.0


class TestProject:
    def test_table_output(self, tmp_path, capsys):
        artifact = tmp_path / "proj.json"
        rc = main(["project", "--ks", "19,20", "--json", str(artifact)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "non-rigorous" in out
        payload = json.loads(artifact.read_text())
        assert payload["rigorous"] is False
        assert payload["non_rigorous"] is True
        assert [row["k"] for row in payload["rows"]] == [19, 20]
        assert all(row["non_rigorous"] for row in payload["rows"])

    def test_below_floor_is_computation_error(self, capsys):
        assert main(["project", "--ks", "5"]) == 2


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "brun.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "brun" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy is not a dependency; a module-level import would cost every
    # subcommand its start-up time
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import brun.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
