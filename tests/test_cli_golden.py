"""Golden transcript of the command-line interface.

Runs every subcommand in every output format, plus the documented error
exits, through ``gwlocal.cli.main`` on a fresh cache directory, and compares
stdout, stderr and the exit code of each invocation with
``tests/cli_transcript.golden``.  The temporary directory is written as
``$TMP`` so the transcript does not depend on where it ran.

Regenerate the golden file, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_transcript.golden")

_FORMATS = ("text", "json", "csv")

_TABLES = {
    "gw0.txt": "# genus-zero quintic invariants\n1 2875\n\n2 4876875/8\n3 8564575000/27\n",
    "gw1.txt": "1\t2875/12\n2\t407125/8\n3\t243388750/9\n",
}


def _invocations():
    quintic_lines = ("genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1")
    plane_line = ("genus0", "--ambient-dim", "2", "--curve-degree", "1", "--insertions", "2,2")
    calls = [
        # before anything is cached
        ("bps", "--genus", "0", "--max-degree", "2"),
        ("bps", "--genus", "1", "--max-degree", "1", "--input", "$TMP/gw1.txt"),
    ]
    for fmt in _FORMATS:
        calls.append(quintic_lines + ("--format", fmt))
        calls.append(plane_line + ("--seed", "7", "--format", fmt))
    calls.append(quintic_lines + ("--quiet",))
    for fmt in _FORMATS:
        calls.append(("table1", "--max-degree", "4", "--format", fmt))
        calls.append(("bps", "--genus", "0", "--max-degree", "3", "--format", fmt))
        calls.append(
            ("bps", "--genus", "1", "--max-degree", "3", "--input", "$TMP/gw1.txt",
             "--format", fmt)
        )
        calls.append(
            ("dims", "--genus", "1", "--c1a", "10", "--half-dim", "4", "--bundle-c1a", "10",
             "--format", fmt)
        )
        calls.append(("wdvv", "--max-degree", "5", "--format", fmt))
    calls += [
        ("bps", "--genus", "0", "--max-degree", "3", "--input", "$TMP/gw0.txt"),
        ("bps", "--genus", "1", "--max-degree", "2", "--input", "$TMP/gw1.txt",
         "--gw0-input", "$TMP/gw0.txt", "--quiet"),
        ("dims", "--genus", "0", "--marks", "5", "--c1a", "6", "--half-dim", "2"),
        ("dims", "--genus", "0", "--c1a", "6", "--half-dim", "0"),
        # error exits
        ("genus0", "--ambient-dim", "4", "--degrees", "5", "--curve-degree", "1",
         "--insertions", "2,2"),
        ("genus0", "--ambient-dim", "4", "--degrees", "5,x", "--curve-degree", "1"),
        ("table1", "--max-degree", "9"),
        ("bps", "--genus", "2", "--max-degree", "1"),
        ("bps", "--genus", "1", "--max-degree", "1"),
        ("bps", "--genus", "0", "--max-degree", "1", "--input", "$TMP/absent.txt"),
        ("dims", "--genus", "2", "--c1a", "0", "--half-dim", "3"),
        ("wdvv", "--max-degree", "0"),
        ("genus0", "--ambient-dim", "1", "--curve-degree", "1", "--insertions", "1,1",
         "--jobs", "0"),
    ]
    return calls


def transcript(tmp):
    """Run every invocation with ``tmp`` as scratch and cache directory and
    return the transcript text.  Sets ``GW_CACHE_DIR`` and ``COLUMNS`` (usage
    lines wrap at the terminal width) for the duration of the run."""
    from gwlocal.cli import main

    tmp = str(tmp)
    for name, text in _TABLES.items():
        Path(tmp, name).write_text(text, encoding="ascii")
    saved = {key: os.environ.get(key) for key in ("GW_CACHE_DIR", "COLUMNS")}
    os.environ["GW_CACHE_DIR"] = os.path.join(tmp, "cache")
    os.environ["COLUMNS"] = "80"
    chunks = []
    try:
        for call in _invocations():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.replace("$TMP", tmp) for arg in call])
            chunks.append(
                f"$ gwlocal {' '.join(call)}\n"
                f"exit: {code}\n"
                f"--- stdout\n{out.getvalue()}"
                f"--- stderr\n{err.getvalue().replace(tmp, '$TMP')}"
            )
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return "\n".join(chunks)


def test_transcript_matches_golden(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = transcript(tmp_path)
    for got, want in zip(actual.split("\n$ "), expected.split("\n$ ")):
        assert got == want
    assert actual == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(transcript(scratch), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
