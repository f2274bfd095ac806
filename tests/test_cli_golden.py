"""Byte-identical CLI output on every fixture, pinned by sha256.

Each run calls `dspkit.cli.main` in-process from the repository root, so
`input_path` reads as `fixtures/<name>.json`, and pins the sha256 of its
stdout and of its stderr together with its exit code.  `realize` is left
out: its floats depend on the BLAS build.

Regenerate the golden file only for an intended output change, recorded in
CHANGES.md:

    python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"

COMMANDS = [
    ["invariants"],
    ["decide"],
    ["decide", "--trace"],
    ["decide", "--weak"],
    ["generic"],
    ["classify"],
]


def runs() -> list[list[str]]:
    targets = [f"fixtures/{p.name}" for p in sorted((ROOT / "fixtures").glob("*.json"))]
    targets.append("fixtures")
    out = [[cmd, target, *flags] for cmd, *flags in COMMANDS for target in targets]
    out += [["enumerate-rigid", "--n", str(n)] for n in range(1, 7)]
    out += [
        ["enumerate-rigid", "--n", str(n), "--p", p] for p in ("1", "3") for n in range(1, 7)
    ]
    return out


def execute(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; cwd must be ROOT."""
    from dspkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str]) -> dict:
    code, out, err = execute(argv)
    return {"code": code, "stdout": digest(out), "stderr": digest(err)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("DSPKIT_SEED", raising=False)


def test_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in runs())


@pytest.mark.parametrize("argv", runs(), ids=" ".join)
def test_output_matches_golden(golden, argv):
    key = " ".join(argv)
    assert key in golden, f"no golden entry for {key!r}; see the module docstring"
    code, out, err = execute(argv)
    got = {"code": code, "stdout": digest(out), "stderr": digest(err)}
    assert got == golden[key], f"{key}: exit {code}\n--- stdout\n{out}--- stderr\n{err}"


if __name__ == "__main__":
    import os

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    os.environ.pop("DSPKIT_SEED", None)
    table = {" ".join(argv): record(argv) for argv in runs()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} runs to {GOLDEN.relative_to(ROOT)}")
