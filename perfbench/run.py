"""mpemba benchmark: end-to-end and per-layer timings of three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload relax_chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 [--trace 1] [--out rec.json]
    python3 perfbench/run.py --sweep 20 --out perfbench/results/convergence.json
    python3 perfbench/run.py --scan --out perfbench/results/size_scan.json
    python3 perfbench/run.py --compare a.json b.json

A single-workload run prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Its full record
(per-op times, output digests, problems) is written under ``.perfbench_out/``.

This file uses only the standard library.  The work runs in worker processes
(``worker.py``) whose environment pins the BLAS thread pools to one thread
before numpy loads; see README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("relax_chain", "anneal_chain", "cli_configs")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Set-up-only workers per untimed run; with the timed worker's own set-up
#: they give the samples whose median is setup_s.
SETUP_SAMPLES = 6
#: A single-workload run gives up (exit 1, no result) after this many seconds.
TIME_LIMIT_S = 170.0
#: Reference time of the calibration kernels (workloads.calibration_s).  Gated
#: times are wall times scaled by REFERENCE_CAL_S / (the kernel's time measured
#: next to them): seconds on a machine that runs the kernel this fast.  Both
#: kernels take about this long on a 2-core Intel Xeon VM at its fastest, so
#: there scaled and wall times agree; anywhere, the machine's speed drift
#: cancels out of the ratio.
REFERENCE_CAL_S = 0.008

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB"}
SPANS = (
    "models.build", "operators.basis", "davies.generator", "spectral.decompose",
    "operators.state", "transform.exact", "transform.verify", "transform.crossing",
    "spectral.evolve", "thermo.trajectory", "thermo.csv",
    "metropolis.search", "metropolis.trace_csv",
    "config.load", "cli.qubit_demo", "cli.atom_exact", "cli.metropolis_swap", "cli.spectrum_tfim5",
)


class WorkerError(RuntimeError):
    pass


def spawn(request: dict, timeout: float | None) -> dict:
    """Run one worker to completion and return its JSON reply."""
    if timeout is not None and timeout <= 0:
        raise WorkerError("no time left for another worker")
    env = dict(os.environ, **THREAD_ENV)
    request = dict(request, root=str(ROOT), spawned=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {request['mode']} ran past {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {request['mode']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(ops: list[dict], scaled: bool = True) -> list[float]:
    """Op times, scaled to the reference speed unless ``scaled`` is false."""
    return [o["s"] * REFERENCE_CAL_S / o["cal_s"] if scaled else o["s"] for o in ops]


def _failed(ops: list[dict]) -> int:
    """Ops whose outputs are wrong: these make a run incorrect."""
    return sum(1 for o in ops if o["problems"])


def _short(ops: list[dict]) -> int:
    """Ops with wrong outputs or a shortfall (correct outputs that fall short
    of the paper's claim: no crossing found, a search not converged)."""
    return sum(1 for o in ops if o["problems"] or o["shortfalls"])


def end_to_end(setups: list[dict], reply: dict) -> tuple[dict, dict]:
    """Gated metrics, plus the ungated ones the summary prints."""
    ops = reply["ops"]
    times = op_times(ops)
    gated = {
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_CAL_S / s["cal_s"] for s in setups),
        "op_p50_s": quantile(times, 50),
        "op_p90_s": quantile(times, 90),
        "peak_rss_mb": reply["peak_rss_mb"],
    }
    extra = {
        "ops": len(ops),
        "failed_frac": _short(ops) / len(ops),
        "setup_samples": len(setups),
        "setup_wall_s": statistics.median(s["setup_s"] for s in setups),
        "op_p50_wall_s": quantile(op_times(ops, scaled=False), 50),
        "speed_vs_reference": REFERENCE_CAL_S / statistics.median(o["cal_s"] for o in ops),
        "oracle_sup_norm": reply["oracle"]["sup_norm"],
    }
    return gated, extra


def per_layer(plain: dict, traced: dict) -> dict:
    spans = traced["spans"]
    m = {}
    for name in SPANS:
        row = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})
        calls = row["calls"]
        m[f"{name}_s"] = row["total_s"] / calls if calls else 0.0
        m[f"{name}_self_s"] = row["self_s"] / calls if calls else 0.0
        m[f"{name}_calls"] = calls

    def counter(name, key):
        return spans.get(name, {}).get("counters", {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    for name, short in (("spectral.evolve", "evolve"), ("thermo.trajectory", "trajectory")):
        total = spans.get(name, {}).get("total_s", 0.0)
        m[f"{name.split('.')[0]}.{short}_us_per_point"] = ratio(total, counter(name, "points"), 1e6)
    m["thermo.csv_bytes"] = ratio(counter("thermo.csv", "bytes"), m["thermo.csv_calls"])
    m["metropolis.trace_csv_bytes"] = ratio(counter("metropolis.trace_csv", "bytes"),
                                            m["metropolis.trace_csv_calls"])
    proposals = counter("metropolis.search", "proposals")
    accepts = counter("metropolis.search", "accepts")
    m["metropolis.proposals"] = ratio(proposals, m["metropolis.search_calls"])
    m["metropolis.us_per_proposal"] = ratio(
        spans.get("metropolis.search", {}).get("total_s", 0.0), proposals, 1e6)
    m["metropolis.accept_frac"] = ratio(accepts, proposals)
    m["metropolis.flat_accept_frac"] = ratio(counter("metropolis.search", "flat_accepts"), accepts)
    m["trace.overhead_frac"] = (quantile(op_times(traced["ops"]), 50)
                                / quantile(op_times(plain["ops"]), 50) - 1.0)
    return m


def per_layer_units(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_calls"):
        return "count", "lower"
    if name.endswith("_us_per_point") or name.endswith("us_per_proposal"):
        return "us", "lower"
    if name.endswith("_bytes"):
        return "B", "lower"
    if name == "metropolis.proposals":
        return "count", "lower"
    if name == "metropolis.accept_frac":
        return "ratio", "higher"
    if name.endswith("_frac"):
        return "ratio", "lower"
    return "s", "lower"


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
            stamp: bool = False) -> dict:
    """One run of one workload: the single-line JSON result plus the full record."""
    base = {"workload": workload, "seed": seed}

    def run(label, secs, traced):
        out = OUT / workload / label
        shutil.rmtree(out, ignore_errors=True)
        return spawn(dict(base, mode="run", seconds=secs, trace=traced, out=str(out),
                          stamp=stamp), deadline - time.perf_counter())

    if trace:
        runs = {"plain": run("plain", seconds / 2, False), "traced": run("traced", seconds / 2, True)}
        metrics = per_layer(runs["plain"], runs["traced"])
        units = {k: per_layer_units(k)[0] for k in metrics}
        extra = {}
    else:
        setups = []
        for _ in range(SETUP_SAMPLES):
            out = OUT / workload / "setup"
            shutil.rmtree(out, ignore_errors=True)
            setups.append(spawn(dict(base, mode="setup", out=str(out)),
                                deadline - time.perf_counter()))
        runs = {"plain": run("plain", seconds, False)}
        setups.append(runs["plain"])
        metrics, extra = end_to_end(setups, runs["plain"])
        units = END_TO_END_UNITS
    ops = [o for r in runs.values() for o in r["ops"]]
    result = {
        "correct": _failed(ops) == 0 and all(r["oracle"]["ok"] for r in runs.values()),
        "attempted": len(ops),
        "failed": _failed(ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(base, seconds=seconds, trace=int(trace), result=result, extra=extra,
                  oracle={k: r["oracle"] for k, r in runs.items()},
                  problems=[dict(run=k, op=o["op"], problems=o["problems"])
                            for k, r in runs.items() for o in r["ops"] if o["problems"]],
                  shortfalls=[dict(run=k, op=o["op"], shortfalls=o["shortfalls"])
                              for k, r in runs.items() for o in r["ops"] if o["shortfalls"]],
                  ops={k: [{f: v for f, v in o.items() if f != "digests"} for o in r["ops"]]
                       for k, r in runs.items()},
                  digests={f"{workload}/{seed}/{k}/op{o['op']}/{f}": d
                           for k, r in runs.items() for o in r["ops"] for f, d in o["digests"].items()})
    if stamp:
        record["stamp"] = runs["plain"]["stamp"]
    for kind in ("problems", "shortfalls"):
        if record[kind]:
            first = record[kind][0]
            print(f"{workload}: {len(record[kind])} of {len(ops)} ops with {kind}, "
                  f"first ({first['run']} op {first['op']}): {first[kind][0]}", file=sys.stderr)
    return record


def save(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")


def digests_of(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    records = data.get("records", [data])
    return {k: v for r in records for k, v in r.get("digests", {}).items()}


def compare(path_a: str, path_b: str) -> dict:
    """Count output digests that differ between two records (not a gated metric)."""
    a, b = digests_of(path_a), digests_of(path_b)
    common = a.keys() & b.keys()
    return {"compared": len(common), "changed": sum(1 for k in common if a[k] != b[k]),
            "only_a": len(a.keys() - b.keys()), "only_b": len(b.keys() - a.keys())}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def summary(records: list[dict]) -> None:
    """Every metric by name, with its unit, per workload."""
    for rec in records:
        res = rec["result"]
        print(f"{rec['workload']} (seed {rec['seed']}, {rec['seconds']} s, trace {rec['trace']}): "
              f"{res['attempted']} ops, {res['failed']} failed, correct={res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {_fmt(m['value']):>14s} {m['unit']}")
        for name, value in rec["extra"].items():
            unit = "s" if name.endswith("_s") else ""
            print(f"  {name:40s} {_fmt(value):>14s} {unit}  (not gated)")


def print_sweep(reply: dict) -> None:
    n = reply["n_seeds"]
    for name, r in reply["results"].items():
        for label, b in r["budgets"].items():
            print(f"{name:22s} {label:32s} {b['converged']:3d}/{n} within {b['budget']:7d}, "
                  f"median proposals {_fmt(b['median_proposals'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record (with an environment stamp) here")
    parser.add_argument("--sweep", type=int, metavar="N", help="convergence sweep over seeds 0..N-1")
    parser.add_argument("--scan", action="store_true", help="per-layer size scan")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="count changed output digests")
    args = parser.parse_args(argv)

    try:
        if args.compare:
            print(json.dumps(compare(*args.compare)))
            return 0
        if args.sweep or args.scan:
            request = {"mode": "sweep", "n_seeds": args.sweep} if args.sweep else {"mode": "scan"}
            reply = spawn(dict(request, stamp=True), None)
            if args.out:
                save(Path(args.out), reply)
            if args.sweep:
                print_sweep(reply)
            print(json.dumps(reply["results"]))
            return 0
        if args.workload is None:
            parser.error("give --workload, --sweep, --scan or --compare")
        if args.workload != "all":
            deadline = time.perf_counter() + TIME_LIMIT_S
            record = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline,
                             stamp=bool(args.out))
            save(OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
            if args.out:
                save(Path(args.out), {"stamp": record.pop("stamp"), "records": [record]})
            print(json.dumps(record["result"]))
            return 0
        records = []
        for workload in WORKLOADS:
            for trace in sorted({0, args.trace}):
                deadline = time.perf_counter() + TIME_LIMIT_S
                records.append(measure(workload, args.seed, args.seconds, bool(trace), deadline,
                                       stamp=bool(args.out) and not records))
        summary(records)
        if args.out:
            save(Path(args.out), {"stamp": records[0].pop("stamp"), "records": records})
        print(json.dumps({f"{r['workload']}/trace{r['trace']}": r["result"] for r in records}))
        return 0
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
