"""Digest every shipped CLI output, to check that a change leaves them bit-identical.

Runs each ``configs/*.json`` through each subcommand (``spectrum``, ``evolve``,
``mpemba``, ``metropolis``) in its own process, with one BLAS thread, and
records the sha256 of every file it writes, of its stdout (the output
directory replaced by ``<out>``), of its stderr and of its exit code.

    python tools/output_digests.py WORKDIR [--repo CHECKOUT]
    python tools/output_digests.py --compare A.json B.json

The first form writes the runs under ``WORKDIR/runs`` and the digests to
``WORKDIR/digests.json``; ``--repo`` runs another checkout's source and
configs (default: the checkout holding this script).  The second lists the
keys whose digests differ or exist on one side only, and exits 1 if any do.
Under each changed ``.csv`` key whose file both sides kept (in the ``runs``
directory beside each ``digests.json``) with the same header and row count,
it reports the columns that differ, how many rows differ, and per column the
largest difference relative to the column's largest magnitude.  Under each
changed ``.txt`` key whose file both sides kept, it prints the lines that
differ, A's prefixed ``-`` and B's ``+``.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SUBCOMMANDS = ("spectrum", "evolve", "mpemba", "metropolis")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_runs(repo: Path, workdir: Path) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(repo / "src"))
    env.pop("MPEMBA_OUT", None)
    digests = {}
    for config in sorted((repo / "configs").glob("*.json")):
        for command in SUBCOMMANDS:
            run = f"{config.stem}/{command}"
            out = workdir / "runs" / config.stem / command
            out.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "mpemba", command, "--config", str(config), "--out", str(out)],
                cwd=repo, env=env, capture_output=True, check=False,
            )
            digests[f"{run}:exit"] = str(proc.returncode)
            digests[f"{run}:stdout"] = _sha(proc.stdout.replace(str(out).encode(), b"<out>"))
            digests[f"{run}:stderr"] = _sha(proc.stderr)
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digests[f"{run}/{path.relative_to(out).as_posix()}"] = _sha(path.read_bytes())
            print(f"{run}: exit {proc.returncode}", file=sys.stderr)
    return digests


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_changes(path_a: Path, path_b: Path) -> list[str] | None:
    """What differs between two CSV files, one line per changed column plus a row count.

    ``None`` when the files cannot be compared cell by cell (different header,
    row count or row length).  A column's change is the largest |a - b| over its rows
    divided by the largest |value| on either side; it is left out when a cell
    is not a number.
    """
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return None
    if any(len(row) != len(rows_a[0]) for row in rows_a + rows_b):
        return None
    body_a, body_b = rows_a[1:], rows_b[1:]
    changed_rows = sum(ra != rb for ra, rb in zip(body_a, body_b))
    lines = [f"{changed_rows} of {len(body_a)} rows differ"]
    for j, name in enumerate(rows_a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(body_a, body_b)]
        n_changed = sum(x != y for x, y in pairs)
        if not n_changed:
            continue
        line = f"column {name}: {n_changed} rows differ"
        values = [(_number(x), _number(y), x != y) for x, y in pairs]
        if all(x is not None and y is not None for x, y, _ in values):
            scale = max(max(abs(x), abs(y)) for x, y, _ in values)
            worst = max(abs(x - y) for x, y, differs in values if differs)
            if scale > 0 and math.isfinite(scale):
                line += f", largest change {worst / scale:.3g} of max |{name}|"
            else:
                line += f", largest change {worst:.3g}"
        lines.append(line)
    return lines


def text_changes(path_a: Path, path_b: Path) -> list[str]:
    """The lines that differ between two text files, one run of them at a time
    in file order: A's as ``-line``, then B's as ``+line``."""
    lines_a, lines_b = (p.read_text().splitlines() for p in (path_a, path_b))
    # past the two file-name lines, every line is a changed one or an @@ range
    diff = list(difflib.unified_diff(lines_a, lines_b, lineterm="", n=0))[2:]
    return [line for line in diff if not line.startswith("@@")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workdir", nargs="?", type=Path, help="directory for the runs and digests.json")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and configs/ are run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="two digests.json files to compare")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        changed = compare(a, b)
        runs_a, runs_b = (p.parent / "runs" for p in args.compare)
        for key in changed:
            print(key)
            file_a, file_b = runs_a / key, runs_b / key
            if not (file_a.is_file() and file_b.is_file()):
                continue
            if key.endswith(".csv"):
                lines = csv_changes(file_a, file_b) or ["header or row count differs"]
            elif key.endswith(".txt"):
                lines = text_changes(file_a, file_b)
            else:
                continue
            for line in lines:
                print(f"    {line}")
        print(f"{len(changed)} changed of {len(a.keys() | b.keys())} keys", file=sys.stderr)
        return 1 if changed else 0
    if args.workdir is None:
        parser.error("give a WORKDIR or --compare A B")
    digests = digest_runs(args.repo.resolve(), args.workdir.resolve())
    (args.workdir / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    files = sum(1 for k in digests if ":" not in k)
    print(f"{files} output files, {len(digests)} keys", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
