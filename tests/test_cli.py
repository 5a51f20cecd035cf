"""Command line behavior: wiring, artifacts, exit codes."""

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from brun import __version__, cli, sieve, tables
from brun.cli import main
from brun.interval import Interval, _frac_bracket
from brun.sieve import TwinCensus
from conftest import segment_size, usable_cpus

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

EXTEND_FIXTURES = [
    "extend",
    "--tables", "tests/fixtures",
    "--base-x", "1e15",
    "--base-lo", "1.83",
    "--base-hi", "1.84",
]

# one run of each subcommand and the flag that names its artifact
EVERY_COMMAND = [
    (["census", "--limit", "1e6"], "--json"),
    (EXTEND_FIXTURES, "--json"),
    (["scan-c", "--alpha", "2/5", "--xmax", "2000"], "--json"),
    (["h-bound", "--cutoff", "1e5"], "--json"),
    (CERTIFY_NUMERIC, "--out"),
    (["project", "--ks", "19,20"], "--json"),
]


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
        # non-finite decimals are usage errors, not OverflowError or InvalidOperation
        for text in ("inf", "Infinity", "sNaN"):
            assert main(["census", "--limit", text]) == 1
        assert main(["certify", "--x0", "inf"]) == 1
        assert main(["scan-c", "--alpha", "abc"]) == 1
        assert main(["project", "--ks", "a,b"]) == 1
        assert main(CERTIFY_NUMERIC + ["--width-target", "inf"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["census", "--limit", "abc"], "argument --limit: not a number: 'abc'"),
        (CERTIFY_NUMERIC + ["--width-target", "abc"], "argument --width-target: not a number: 'abc'"),
        (["project", "--ks", ","], "argument --ks: empty exponent list"),
        (
            ["certify", "--x0", "4e18", "--pi2", "3023463123235320", "--brun-lo", "abc", "--brun-hi", "1.840518"],
            "brun: endpoints must be decimal numbers: 'abc', '1.840518'",
        ),
    ], ids=["exact-int", "positive-float", "exponent-list", "decimal-ends"])
    def test_unparsable_values(self, argv, message, capsys):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["census", "--limit"],
        ["certify", "--x0"],
        ["certify", "--x0", "4e18", "--pi2"],
        ["h-bound", "--cutoff"],
        ["scan-c", "--xmax"],
        ["extend", "--base-x"],
    ], ids=lambda argv: argv[-1])
    def test_huge_integers_are_usage_errors(self, argv, capsys):
        # int() is quadratic in the digit count: 1e5000000 is refused before it
        start = time.perf_counter()
        assert main(argv + ["1e5000000"]) == 1
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: magnitude 10^309 or more: '1e5000000'" in err

    def test_integers_below_the_cap_parse(self):
        assert cli._exact_int("1e308") == 10**308
        assert cli._exact_int("9" * 309) == 10**309 - 1
        assert cli._exact_int("-1e308") == -(10**308)

    def test_retired_options_are_usage_errors(self, capsys):
        # the tail cutoff and the projection's assumed limit are constants
        assert main(CERTIFY_NUMERIC + ["--cutoff-u", "40"]) == 1
        assert main(["project", "--ks", "19", "--b-assumed", "1.5"]) == 1
        assert capsys.readouterr().err.count("unrecognized arguments") == 2

    def test_out_of_memory_is_computation_error(self, monkeypatch, capsys):
        def exhausted(alpha, xmax):
            raise MemoryError(f"Unable to allocate {8 * xmax} bytes for the divisor counts")

        monkeypatch.setattr(cli, "scan_c", exhausted)
        assert main(["scan-c", "--xmax", "1e13"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("brun: Unable to allocate") and err.count("\n") == 1


class TestArtifacts:
    # sha256 of each artifact: a change to any byte of the envelope or the
    # body shows here, not only in a field a test happens to read
    PINS = [
        (["census", "--limit", "1e6"], "--json",
         "c947cf4bb7b218d45ad81b1a2d46510b2c55bc17265875ddebd01112c7ea84c3"),
        (EXTEND_FIXTURES, "--json",
         "ae78d3452389977414bc2910d9a20c4d342e6b089c48ed9ed50f4e52703b244f"),
        (["scan-c", "--alpha", "2/5", "--xmax", "2000"], "--json",
         "14ca05a8c129ad123c82c5993ed917688560ad11d402592852750ff1517e4e21"),
        (["h-bound", "--cutoff", "1e5"], "--json",
         "f81c40a9bff950a0e48e0b90e7d4debfd408ed990d23b313ae9a73f68928c555"),
        (CERTIFY_NUMERIC, "--out",
         "c1b7b48eca1e298866eae8571165ec639fdaece94759f5374401198f5ed06981"),
        (CERTIFY_TABLES, "--out",
         "65919af631e7bb979bc418ef0324f0d11b3f46545401f6a98793d8867e11f161"),
        # project writes a constant, b_assumed, under inputs; the improved
        # certify drops a report field, the params' sqrt_valid_from
        (["project", "--ks", "19,20"], "--json",
         "2ea7b991d34801177ffe58141122956e1e74d284edf4befb7322e9d89a3e8d68"),
        (CERTIFY_NUMERIC + ["--improved"], "--out",
         "f7cf01c99d8c2c448d2638d2f8bee6aa71e093a74e1f705e7cb736c0bc055959"),
    ]

    @pytest.mark.parametrize("argv, flag, digest", PINS, ids=[
        "census", "extend", "scan-c", "h-bound", "certify", "certify-tables",
        "project", "certify-improved",
    ])
    def test_pinned_bytes(self, argv, flag, digest, tmp_path):
        out = tmp_path / "artifact.json"
        assert main(argv + [flag, str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, flag", EVERY_COMMAND)
    def test_command_and_version(self, argv, flag, tmp_path):
        out = tmp_path / "artifact.json"
        assert main(argv + [flag, str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == argv[0]
        assert payload["version"] == __version__

    def test_encoder_maps_what_reports_hold_and_nothing_else(self):
        partial = Interval(1.5, 2.0)
        census = TwinCensus(limit=10, pi2=2, brun_partial=partial)
        assert cli._encode(census) == {"limit": 10, "pi2": 2, "brun_partial": partial}
        assert cli._encode(partial) == {"lo": "1.5", "hi": "2", "lo_hex": "0x1.8000000000000p+0",
                                        "hi_hex": "0x1.0000000000000p+1"}
        assert cli._encode(Fraction(1, 3)) == "1/3"
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._encode(object())

    def test_unwritable_path_is_computation_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "artifact.json")
        assert main(["census", "--limit", "1000", "--json", out]) == 2
        assert main(CERTIFY_NUMERIC + ["--width-target", "1e-3", "--out", out]) == 2
        assert capsys.readouterr().err.count("brun: ") == 2


class TestCensus:
    def test_known_count(self, capsys):
        assert main(["census", "--limit", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "pi2 = 8169" in out
        assert "brun_partial in [1.71077693080" in out

    def test_segment_size_is_not_an_option(self, capsys):
        assert main(["census", "--limit", "100", "--segment-size", "4096"]) == 1
        assert "unrecognized arguments: --segment-size 4096" in capsys.readouterr().err

    def test_emit_table(self, tmp_path, capsys):
        path = tmp_path / "row.txt"
        assert main(["census", "--limit", "1000000", "--emit-table", str(path)]) == 0
        assert path.read_text() == "1d6  8169\n"

    @pytest.mark.parametrize("limit, row", [
        ("1", "1d0  0"), ("10", "1d1  2"), ("1e6", "1d6  8169"), ("5e6", "5d6  32463"),
    ])
    def test_emit_table_threshold_spelling(self, limit, row, tmp_path, capsys):
        path = tmp_path / "row.txt"
        assert main(["census", "--limit", limit, "--emit-table", str(path)]) == 0
        assert path.read_text() == row + "\n"

    def test_artifact_thread_invariant(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["census", "--limit", "50000", "--json"]
        assert main(base + [str(a), "--threads", "1"]) == 0
        with segment_size(4096):
            assert main(base + [str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["pi2"] == 705
        assert "version" in payload

    def test_worker_count_is_capped(self, pool_requests, capsys):
        args = ["census", "--limit", "1e5"]
        with segment_size(4096):
            assert main(args + ["--threads", "1000000"]) == 0
            capped = capsys.readouterr().out
            assert all(n <= usable_cpus() for n, _ in pool_requests)
            assert len(pool_requests) == (usable_cpus() > 1)
            assert main(args) == 0
            assert capsys.readouterr().out == capped

    def test_worker_error_is_computation_error(self, monkeypatch, capsys):
        def exhausted(segment):
            raise MemoryError("Unable to allocate a segment")

        # forked workers inherit the patched module
        monkeypatch.setattr(sieve, "_twin_units", exhausted)
        with segment_size(4096):
            assert main(["census", "--limit", "1e6", "--threads", "2"]) == 2
        assert capsys.readouterr().err == "brun: Unable to allocate a segment\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        usable_cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods(),
        reason="census runs in the calling process",
    )
    def test_killed_worker_is_computation_error(self, monkeypatch, capsys):
        parent = os.getpid()

        def killed(segment):
            assert os.getpid() != parent
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(sieve, "_twin_units", killed)
        with segment_size(4096):
            assert main(["census", "--limit", "1e6", "--threads", "2"]) == 2
        assert capsys.readouterr().err.startswith("brun: A process in the process pool")
        assert multiprocessing.active_children() == []


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

    def test_directory_named_txt_is_not_read(self, table_dir, tmp_path):
        # a directory matches *.txt too; only regular files are tables
        (tmp_path / "sub.txt").mkdir()
        (tmp_path / "sub.txt" / "rows.txt").write_text("1d6  8169\n")
        artifact = tmp_path / "extend.json"
        assert main(EXTEND_FIXTURES[:2] + [table_dir] + EXTEND_FIXTURES[3:] + ["--json", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert set(payload["inputs"]["input_files"]) == {"excerpt.txt"}
        assert payload["pi2"] == 1178316017996

    def test_table_routes_build_no_rows(self, table_dir, monkeypatch):
        built = []

        class CountingEntry(tables.CensusTableEntry):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(1)
                return super().__new__(cls, *args, **kwargs)

            @classmethod
            def _make(cls, iterable):
                built.append(1)
                return super()._make(iterable)

        monkeypatch.setattr(tables, "CensusTableEntry", CountingEntry)
        options = ["--tables", table_dir, "--base-x", "1e15", "--base-lo", "1.83", "--base-hi", "1.84"]
        assert main(["extend"] + options) == 0
        assert main(["certify", "--x0", "1001e12", "--width-target", "1e-3"] + options) == 0
        assert built == []
        assert len(tables.load_table_dir(table_dir)) == len(built) == 2  # the count sees rows

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

    def test_requires_tables(self, capsys):
        assert main(["extend"]) == 1
        assert "--tables" in capsys.readouterr().err

    def test_missing_dir_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["extend", "--tables", missing]) == 1
        assert "directory not found" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi", [
        ("1.84", "1.83"), ("nan", "1.84"), ("1.83", "nan"),
        ("1.83", "inf"), ("-inf", "1.84"), ("1.83", "1e400"),
    ])
    def test_bad_base_is_usage_error(self, table_dir, lo, hi, capsys):
        rc = main([
            "extend",
            "--tables", table_dir,
            "--base-x", "1000000000000000",
            f"--base-lo={lo}",
            f"--base-hi={hi}",
        ])
        assert rc == 1
        assert "bad enclosure" in capsys.readouterr().err

    def test_empty_dir_name_is_not_cwd(self, table_dir, monkeypatch, capsys):
        # the working directory holds a readable table, which must not be used
        monkeypatch.chdir(table_dir)
        base = EXTEND_FIXTURES[3:]
        assert main(["extend", "--tables", ""] + base) == 1
        assert "--tables needs a directory name" in capsys.readouterr().err

    def test_environment_names_no_tables(self, table_dir, tmp_path, monkeypatch, capsys):
        plain = tmp_path / "plain.json"
        assert main(CERTIFY_NUMERIC + ["--out", str(plain)]) == 0
        monkeypatch.setenv("BRUN_TABLE_DIR", table_dir)
        capsys.readouterr()
        assert main(EXTEND_FIXTURES[:1] + EXTEND_FIXTURES[3:]) == 1
        assert "--tables" in capsys.readouterr().err
        assert main(["certify", "--x0", "4e18"]) == 1
        out = tmp_path / "env.json"
        assert main(CERTIFY_NUMERIC + ["--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()

    def test_emitted_rows_chain_to_census(self, tmp_path, capsys):
        rows = tmp_path / "rows"
        rows.mkdir()
        for limit in ("1e6", "2e6", "3e6"):
            argv = ["census", "--limit", limit, "--emit-table", str(rows / f"{limit}.txt")]
            assert main(argv + ["--json", str(tmp_path / f"{limit}.json")]) == 0
        base, last = (json.loads((tmp_path / f"{x}.json").read_text()) for x in ("1e6", "3e6"))
        # the base ends as the exact decimals of their doubles
        partial = base["brun_partial"]
        lo, hi = (str(Decimal(float.fromhex(partial[end + "_hex"]))) for end in ("lo", "hi"))
        out = tmp_path / "extend.json"
        argv = ["extend", "--tables", str(rows), "--base-x", "1e6", "--base-lo", lo, "--base-hi", hi]
        assert main(argv + ["--json", str(out)]) == 0
        chained = json.loads(out.read_text())
        assert set(chained["inputs"]["input_files"]) == {"1e6.txt", "2e6.txt", "3e6.txt"}
        assert chained["pi2"] == last["pi2"] == sieve.census(3 * 10**6).pi2
        enclosure = chained["brun_partial"]
        assert _end(enclosure, "lo") <= _end(last["brun_partial"], "lo")
        assert _end(last["brun_partial"], "hi") <= _end(enclosure, "hi")

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


def _end(iv: dict, side: str) -> Fraction:
    return Fraction(float.fromhex(iv[side + "_hex"]))


class TestRecompute:
    """A certified total is the exact sum of its terms' recorded ends,
    rounded up once, so a reader recomputes it from the artifact alone."""

    @pytest.mark.parametrize("argv", [
        CERTIFY_NUMERIC, CERTIFY_NUMERIC + ["--improved"], CERTIFY_TABLES,
    ], ids=["numeric", "improved", "tables"])
    def test_certify_upper(self, argv, tmp_path):
        out = tmp_path / "cert.json"
        assert main(argv + ["--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        inputs, params, result = cert["inputs"], cert["params"], cert["result"]
        upper = (
            _end(inputs["brun_partial_x0"], "hi") - _end(result["pair_term"], "lo")
            + _end(result["integral"], "hi") + _end(result["sqrt_tail"], "hi")
            + 16 * _end(params["twin_c"], "hi") * _end(result["tail_bound"], "hi")
        )
        assert _frac_bracket(upper, upper).hi.hex() == result["upper_hex"]

    def test_h_bound_log_bound(self, tmp_path):
        out = tmp_path / "h.json"
        assert main(["h-bound", "--cutoff", "1e6", "--json", str(out)]) == 0
        h = json.loads(out.read_text())
        terms = ("partial_log_sum", "tail_first_term", "tail_integral_term")
        log_hi = sum(_end(h[key], "hi") for key in terms)
        assert _frac_bracket(log_hi, log_hi).hi.hex() == h["log_bound"]["hi_hex"]
        assert h["log_bound"]["lo_hex"] == h["partial_log_sum"]["lo_hex"]


class TestScanAndProduct:
    def test_scan_c(self, tmp_path, capsys):
        artifact = tmp_path / "scan.json"
        rc = main(["scan-c", "--alpha", "2/5", "--xmax", "2000", "--json", str(artifact)])
        assert rc == 0
        assert "c(2/5) <=" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["inputs"]["alpha"] == "2/5"
        assert float(payload["bound"]["hi"]) < 1.0503

    def test_scan_c_alpha_too_small_to_halve(self, capsys):
        assert main(["scan-c", "--alpha", "1e-400"]) == 2
        assert "alpha/2 not enclosed above 0" in capsys.readouterr().err

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
        # below its pin of the frozen-F rule and the 1/cutoff tail,
        # 0x1.314a1143324b4p+1 (0x1.314a1143324b9p+1 before the terms
        # were one exact sum rounded once)
        assert result["upper_hex"] == "0x1.313fa900ff655p+1"

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

        def counting_merge(*columns):
            calls.append(1)
            return merge(*columns)

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

    @pytest.mark.parametrize("lo, hi", [
        ("1.9", "1.8"), ("nan", "1.840518"), ("1.840503", "nan"),
        ("1.840503", "inf"), ("-inf", "1.840518"), ("1.840503", "1e400"),
    ])
    def test_bad_partial_is_usage_error(self, lo, hi, capsys):
        argv = CERTIFY_NUMERIC[:5] + [f"--brun-lo={lo}", f"--brun-hi={hi}"]
        assert main(argv) == 1
        assert "bad enclosure" in capsys.readouterr().err

    def test_rejects_partial_triple(self):
        rc = main(["certify", "--x0", "4e18", "--pi2", "10"])
        assert rc == 1

    def test_requires_some_source(self, capsys):
        assert main(["certify", "--x0", "4e18"]) == 1
        assert "censused partial sum" in capsys.readouterr().err

    def test_computation_error_exit(self, capsys):
        rc = main(["certify", "--x0", "1e5", "--pi2", "1224",
                   "--brun-lo", "1.6", "--brun-hi", "1.7"])
        assert rc == 2
        assert "x0 too small" in capsys.readouterr().err

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
