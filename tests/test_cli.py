"""Command-line interface: formats, exit codes, cache behavior."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gwlocal
from gwlocal import DimensionMismatch, WeightVector, localization
from gwlocal.cache import cache_key
from gwlocal.cli import main
from gwlocal.localization import ENGINE_VERSION
from gwlocal.relations import UnsupportedDimension
from gwlocal.targets import InputError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("GW_CACHE_DIR", raising=False)
    return str(tmp_path / "cache")


class TestGenus0:
    def test_quintic_lines_text(self, capsys, cache_dir):
        code, out, _err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--cache-dir", cache_dir,
        )
        assert code == 0
        assert "value: 2875" in out
        assert "graph_count: 10" in out
        assert "seeds: 1 2 3" in out

    def test_json_schema_round_trips(self, capsys, cache_dir):
        code, out, _err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--format", "json", "--cache-dir", cache_dir,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"query", "value", "graph_count", "seeds", "engine_version"}
        assert doc["query"] == {
            "kind": "genus0",
            "ambient_dim": 4,
            "degrees": [5],
            "curve_degree": 1,
            "insertions": [],
        }
        assert isinstance(doc["value"]["num"], str)
        assert isinstance(doc["value"]["den"], str)
        assert Fraction(int(doc["value"]["num"]), int(doc["value"]["den"])) == 2875
        assert doc["seeds"] == [1, 2, 3]
        assert doc["engine_version"] == ENGINE_VERSION

    def test_csv_format(self, capsys, cache_dir):
        code, out, _err = run(
            capsys,
            "genus0", "--ambient-dim", "2", "--curve-degree", "1",
            "--insertions", "2,2", "--format", "csv", "--cache-dir", cache_dir,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,graph_count,seeds,engine_version"
        assert lines[1].startswith("1,")

    def test_line_through_two_points(self, capsys, cache_dir):
        code, out, _err = run(
            capsys,
            "genus0", "--ambient-dim", "2", "--curve-degree", "1",
            "--insertions", "2,2", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert "value: 1" in out

    def test_seed_flag_sets_lineage(self, capsys, cache_dir):
        code, out, _err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--seed", "7", "--format", "json", "--cache-dir", cache_dir,
        )
        assert code == 0
        assert json.loads(out)["seeds"] == [7, 8, 9]

    def test_dimension_mismatch_exits_2(self, capsys, cache_dir):
        code, _out, err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--insertions", "2,2", "--cache-dir", cache_dir,
        )
        assert code == 2
        assert "dimension mismatch" in err

    def test_malformed_insertions_exit_1(self, capsys, cache_dir):
        code, _out, _err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--insertions", "2,x", "--cache-dir", cache_dir,
        )
        assert code == 1

    def test_negative_insertion_exit_1(self, capsys, cache_dir):
        code, out, err = run(
            capsys,
            "genus0", "--ambient-dim", "2", "--curve-degree", "1", "--insertions", "-1",
            "--cache-dir", cache_dir,
        )
        assert code == 1
        assert out == ""
        assert err == (
            "gwlocal genus0: error: insertion power must be a nonnegative integer, got -1\n"
        )

    def test_nonpositive_factor_exit_1(self, capsys, cache_dir):
        code, _out, err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "0", "--curve-degree", "1",
            "--cache-dir", cache_dir,
        )
        assert code == 1
        assert "non-positive" in err

    def test_missing_required_flag_exit_1(self, capsys):
        code, _out, _err = run(capsys, "genus0", "--curve-degree", "1")
        assert code == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_1(self, capsys, cache_dir, jobs):
        code, out, err = run(
            capsys,
            "genus0", "--ambient-dim", "1", "--curve-degree", "1", "--insertions", "1,1",
            "--jobs", jobs, "--cache-dir", cache_dir,
        )
        assert code == 1
        assert out == ""
        assert "--jobs" in err

    def test_resampling_exhaustion_exit_3(self, capsys, cache_dir, monkeypatch):
        # at weights (1, 2, 3) a degree-2 edge between labels 0 and 2 meets
        # fixed point 1, so every attempt degenerates
        monkeypatch.setattr(
            localization, "sample_weights", lambda seed, n, attempt=0: WeightVector((1, 2, 3))
        )
        code, out, err = run(
            capsys,
            "genus0", "--ambient-dim", "2", "--curve-degree", "2",
            "--insertions", "2,2,2,2,2", "--cache-dir", cache_dir,
        )
        assert code == 3
        assert out == ""
        assert "engine failure: no admissible weights for seed 1" in err

    def test_more_weights_than_the_bound_exit_1(self, capsys, cache_dir):
        # a balanced line count in P^10000 lists its one shape at once, then
        # needs 10,001 distinct weights from 1..10,000
        code, out, err = run(
            capsys,
            "genus0", "--ambient-dim", "10000", "--degrees", "19997", "--curve-degree", "1",
            "--cache-dir", cache_dir,
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "gwlocal genus0: error: n = 10000 needs 10001 distinct weights,"
            " more than WEIGHT_BOUND = 10000"
        ]


class TestCache:
    def test_hit_is_bit_identical_and_noted(self, capsys, cache_dir):
        argv = (
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--format", "json", "--cache-dir", cache_dir,
        )
        code1, out1, err1 = run(capsys, *argv)
        code2, out2, err2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "cache hit" not in err1
        assert "cache hit" in err2

    def test_quiet_suppresses_note(self, capsys, cache_dir):
        argv = (
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--cache-dir", cache_dir, "--quiet",
        )
        run(capsys, *argv)
        _code, _out, err = run(capsys, *argv)
        assert err == ""

    def test_record_and_index_layout(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("GW_CACHE_DIR", str(cache))
        code, _out, _err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
        )
        assert code == 0
        query = {
            "kind": "genus0",
            "ambient_dim": 4,
            "degrees": [5],
            "curve_degree": 1,
            "insertions": [],
        }
        record_path = cache / f"{cache_key(query, ENGINE_VERSION)}.json"
        assert record_path.exists()
        doc = json.loads(record_path.read_text())
        assert doc["value"] == {"num": "2875", "den": "1"}
        assert doc["seeds"] == [1, 2, 3]
        assert sorted(path.name for path in cache.iterdir()) == [record_path.name]

    def test_corrupt_record_is_recomputed_and_rewritten(self, capsys, cache_dir):
        argv = (
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--format", "json", "--cache-dir", cache_dir,
        )
        code, first, _err = run(capsys, *argv)
        assert code == 0
        key = cache_key(json.loads(first)["query"], ENGINE_VERSION)
        record_path = Path(cache_dir) / f"{key}.json"
        text = record_path.read_text()
        record = json.loads(text)
        assert json.dumps(record, sort_keys=True, indent=1) == text

        # a truncated file, and records laid out as stored but with fields of
        # the wrong types; served, "seeds": "99" would print as seeds 9 and 9
        corruptions = [text[: len(text) // 2]] + [
            json.dumps({**record, **fields}, sort_keys=True, indent=1)
            for fields in (
                {"graph_count": "lots"},
                {"seeds": "99"},
                {"seeds": [1, "2", 3]},
                {"graph_count": True},
                {"value": {"num": 2875, "den": 1}},
                {"value": {"num": "2875", "den": 1.0}},
            )
        ]
        for corrupt in corruptions:
            record_path.write_text(corrupt)
            code, second, err = run(capsys, *argv)
            assert code == 0
            assert second == first
            assert str(record_path) in err
            assert "cache hit" not in err
            assert json.loads(record_path.read_text())["value"] == {"num": "2875", "den": "1"}
            code, _out, err = run(capsys, *argv)
            assert code == 0
            assert "cache hit" in err

    def test_record_in_the_stored_layout_is_a_hit(self, capsys, cache_dir):
        # the bytes an earlier release stored for the quintic lines: the key
        # and the layout are unchanged, so it is served as it stands
        key = "aae8f93be09ff400311b5787b001a9b541f9c5bb799c2ebf3090e5a4dd8f367f"
        record = (
            '{\n "created_at": "2026-10-19T17:04:57.643908+00:00",\n'
            ' "engine_version": "0.1.0",\n "graph_count": 10,\n'
            f' "key": "{key}",\n'
            ' "query": {\n  "ambient_dim": 4,\n  "curve_degree": 1,\n'
            '  "degrees": [\n   5\n  ],\n  "insertions": [],\n  "kind": "genus0"\n },\n'
            ' "seeds": [\n  1,\n  2,\n  3\n ],\n'
            ' "value": {\n  "den": "1",\n  "num": "2875"\n }\n}'
        )
        record_path = Path(cache_dir) / f"{key}.json"
        record_path.parent.mkdir(parents=True)
        record_path.write_text(record, encoding="ascii")
        code, out, err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--cache-dir", cache_dir,
        )
        assert code == 0
        assert "value: 2875" in out
        assert err == "cache hit aae8f93be09f\n"
        assert record_path.read_text(encoding="ascii") == record

    def test_failed_store_keeps_the_value(self, capsys, cache_dir):
        # every store fails, yet each computing run prints the computed
        # value and exits 0: first with a directory where the record
        # belongs (EISDIR), then with a regular file as the cache directory
        # (EEXIST, from creating the directory)
        query = {
            "kind": "genus0",
            "ambient_dim": 4,
            "degrees": [5],
            "curve_degree": 1,
            "insertions": [],
        }
        record_name = f"{cache_key(query, ENGINE_VERSION)}.json"
        record_path = Path(cache_dir) / record_name
        record_path.mkdir(parents=True)
        plain_file = Path(cache_dir).parent / "plain-file"
        plain_file.write_text("not a directory\n", encoding="ascii")
        for directory, reason in [(cache_dir, "Is a directory"), (plain_file, "File exists")]:
            for argv in [
                ("genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1"),
                ("genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1"),
                ("table1", "--max-degree", "1"),
            ]:
                code, out, err = run(capsys, *argv, "--cache-dir", str(directory))
                assert code == 0
                assert "2875" in out
                assert f"could not store cache record {Path(directory) / record_name}" in err
                assert reason in err
        assert sorted(path.name for path in Path(cache_dir).iterdir()) == [record_name]
        assert plain_file.read_text(encoding="ascii") == "not a directory\n"
        # a query that only reads the cache finds nothing there
        code, out, err = run(
            capsys, "bps", "--genus", "0", "--max-degree", "1", "--cache-dir", str(plain_file)
        )
        assert (code, out) == (1, "")
        assert "no cached genus-zero" in err

    def test_key_depends_on_engine_version(self):
        query = {"kind": "genus0", "ambient_dim": 4}
        assert cache_key(query, "0.1.0") != cache_key(query, "0.2.0")


class TestTable1:
    def test_low_degrees_consistent(self, capsys, cache_dir):
        code, out, _err = run(capsys, "table1", "--max-degree", "3", "--cache-dir", cache_dir)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all("consistent=yes" in line for line in lines)
        assert "genus1_gw=2875/12" in lines[0]

    def test_single_row(self, capsys, cache_dir):
        code, out, _err = run(capsys, "table1", "--max-degree", "1", "--cache-dir", cache_dir)
        assert code == 0
        assert "reduced=0" in out
        assert "genus1_gw=2875/12" in out
        assert "genus1_bps=0" in out

    def test_degree_bounds(self, capsys, cache_dir):
        code, _out, _err = run(capsys, "table1", "--max-degree", "5", "--cache-dir", cache_dir)
        assert code == 1

    def test_reuses_genus0_cache(self, capsys, cache_dir):
        run(capsys, "table1", "--max-degree", "2", "--cache-dir", cache_dir)
        _code, _out, err = run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "2",
            "--cache-dir", cache_dir,
        )
        assert "cache hit" in err


class TestBps:
    def test_genus_zero_from_file(self, capsys, cache_dir, tmp_path):
        table = tmp_path / "gw0.txt"
        table.write_text("1 2875\n2 4876875/8\n", encoding="ascii")
        code, out, _err = run(
            capsys,
            "bps", "--genus", "0", "--max-degree", "2", "--input", str(table),
            "--cache-dir", cache_dir,
        )
        assert code == 0
        assert "d=1 value=2875" in out
        assert "d=2 value=609250" in out

    def test_genus_one_from_files(self, capsys, cache_dir, tmp_path):
        gw1 = tmp_path / "gw1.txt"
        gw1.write_text("1 2875/12\n2 407125/8\n3 243388750/9\n", encoding="ascii")
        gw0 = tmp_path / "gw0.txt"
        gw0.write_text("1 2875\n2 4876875/8\n3 8564575000/27\n", encoding="ascii")
        code, out, _err = run(
            capsys,
            "bps", "--genus", "1", "--max-degree", "3", "--input", str(gw1),
            "--gw0-input", str(gw0), "--cache-dir", cache_dir,
        )
        assert code == 0
        assert out.splitlines() == ["d=1 value=0", "d=2 value=0", "d=3 value=609250"]

    def test_zero_table_round_trips(self, capsys, cache_dir, tmp_path):
        table = tmp_path / "gw0.txt"
        table.write_text("1 0\n", encoding="ascii")
        code, out, _err = run(
            capsys,
            "bps", "--genus", "0", "--max-degree", "1", "--input", str(table),
            "--cache-dir", cache_dir,
        )
        assert code == 0
        assert out.strip() == "d=1 value=0"

    def test_genus_zero_from_cache(self, capsys, cache_dir):
        run(
            capsys,
            "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
            "--cache-dir", cache_dir,
        )
        code, out, _err = run(
            capsys, "bps", "--genus", "0", "--max-degree", "1", "--cache-dir", cache_dir
        )
        assert code == 0
        assert "d=1 value=2875" in out

    def test_missing_input_exit_1(self, capsys, cache_dir):
        code, _out, err = run(
            capsys, "bps", "--genus", "0", "--max-degree", "2", "--cache-dir", cache_dir
        )
        assert code == 1
        assert "error" in err

    def test_genus_one_requires_input(self, capsys, cache_dir):
        code, _out, _err = run(
            capsys, "bps", "--genus", "1", "--max-degree", "1", "--cache-dir", cache_dir
        )
        assert code == 1

    def test_incomplete_table_exit_1(self, capsys, cache_dir, tmp_path):
        table = tmp_path / "gw0.txt"
        for text, message in [
            ("2 609250\n", f"{table}: table is missing degree 1"),
            ("1\n", f"{table}:1: expected 2 fields"),
            ("1 2875\n2 609250\n1 5\n", f"{table}:3: degree 1 appears twice"),
            ("1 2875 extra\n2 609250\n", f"{table}:1: expected 2 fields"),
            ("1 2875\n2 1/0\n", f"{table}:2: "),
        ]:
            table.write_text(text, encoding="ascii")
            code, out, err = run(
                capsys,
                "bps", "--genus", "0", "--max-degree", "2", "--input", str(table),
                "--cache-dir", cache_dir,
            )
            assert code == 1, text
            assert out == ""
            assert err.startswith(f"gwlocal bps: error: {message}"), err

    def test_non_ascii_table_names_the_file(self, capsys, cache_dir, tmp_path):
        table = tmp_path / "gw0.txt"
        table.write_bytes(b"1 28\xc375\n")
        code, out, err = run(
            capsys,
            "bps", "--genus", "0", "--max-degree", "1", "--input", str(table),
            "--cache-dir", cache_dir,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"gwlocal bps: error: {table}: "), err


class TestDims:
    def test_calabi_yau_threefold(self, capsys):
        code, out, _err = run(
            capsys, "dims", "--genus", "1", "--c1a", "0", "--half-dim", "3"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_marked_genus_one(self, capsys):
        code, out, _err = run(
            capsys, "dims", "--genus", "1", "--marks", "2", "--c1a", "7", "--half-dim", "3"
        )
        assert code == 0
        assert out.strip() == "18"

    def test_twisted(self, capsys):
        code, out, _err = run(
            capsys,
            "dims", "--genus", "1", "--c1a", "10", "--half-dim", "4", "--bundle-c1a", "10",
        )
        assert code == 0
        assert out.strip() == "0"

    def test_genus_two_exit_1(self, capsys):
        code, _out, err = run(
            capsys, "dims", "--genus", "2", "--c1a", "0", "--half-dim", "3"
        )
        assert code == 1
        assert "genus" in err

    def test_target_dimension_nonnegative(self, capsys):
        code, out, _err = run(capsys, "dims", "--genus", "0", "--c1a", "6", "--half-dim", "0")
        assert code == 0
        assert out.strip() == "6"
        code, out, err = run(capsys, "dims", "--genus", "0", "--c1a", "6", "--half-dim", "-2")
        assert code == 1
        assert out == ""
        assert "target dimension must be nonnegative" in err


class TestWdvv:
    def test_text(self, capsys):
        code, out, _err = run(capsys, "wdvv", "--max-degree", "3")
        assert code == 0
        assert out.splitlines() == ["d=1 count=1", "d=2 count=1", "d=3 count=12"]

    def test_csv(self, capsys):
        code, out, _err = run(capsys, "wdvv", "--max-degree", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["degree,count", "1,1"]

    def test_json_values_parse(self, capsys):
        code, out, _err = run(capsys, "wdvv", "--max-degree", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        values = {
            row["degree"]: Fraction(row["count"]["num"] + "/" + row["count"]["den"])
            for row in rows
        }
        assert values == {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304}


class TestErrorBoundary:
    def test_input_error_hierarchy(self):
        assert issubclass(InputError, ValueError)
        assert issubclass(DimensionMismatch, InputError)
        assert issubclass(UnsupportedDimension, InputError)

    def test_engine_bug_is_not_a_user_error(self, cache_dir, monkeypatch):
        # a bare ValueError from inside the engine is a bug: main must let it
        # propagate as a traceback, not report it as rejected input
        def broken(*args, **kwargs):
            raise ValueError("not enough values to unpack")

        monkeypatch.setattr(localization._Evaluator, "shapes_total", broken)
        with pytest.raises(ValueError, match="not enough values to unpack"):
            main([
                "genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "2",
                "--cache-dir", cache_dir,
            ])


def _child_env(tmp_path):
    # The child gets the directory this process imported gwlocal from, so
    # ``-m gwlocal`` finds the same package from a checkout (PYTHONPATH=src)
    # and from an installed package alike. The rest of the env stays minimal.
    package_root = str(Path(gwlocal.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": package_root + (os.pathsep + inherited if inherited else ""),
        "GW_CACHE_DIR": str(tmp_path / "cache"),
    }


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "gwlocal",
            "genus0", "--ambient-dim", "1", "--curve-degree", "1",
            "--insertions", "1,1", "--format", "json",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["value"] == {"num": "1", "den": "1"}


class TestClosedOutput:
    """A reader that closes standard output before the command writes to it
    gets exit 1 and nothing on stderr: no usage error, no exit 120 from the
    interpreter's last flush."""

    def test_in_process(self, capsys, monkeypatch):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stdout:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                code = main(["wdvv", "--max-degree", "6"])
        assert (code, capsys.readouterr().err) == (1, "")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_child_process(self, tmp_path, unbuffered):
        # the pipe's read end is closed before the child starts, so its first
        # write to stdout fails; with PYTHONUNBUFFERED that write is print's,
        # and without it main's flush
        env = _child_env(tmp_path)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gwlocal", "wdvv", "--max-degree", "6"],
                stdout=write,
                stderr=subprocess.PIPE,
                cwd=tmp_path,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")
