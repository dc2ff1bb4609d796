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
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
        for key in changed:
            print(key)
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
