"""Benchmark worker: one process, started by run.py with BLAS threads pinned.

Usage (by run.py only): ``python3 perfbench/worker.py '<json request>'``.
The request names a mode:

* ``setup``: import mpemba and build the workload's reusable state, then
  report when that finished;
* ``run``: the same set-up, then ops in a closed loop for ``seconds``, the
  untimed checks of every op, and the once-per-run oracle;
* ``sweep`` / ``scan``: the convergence sweep and the size scan.

The last stdout line is one JSON object.  mpemba is imported from the
checkout's ``src`` only, so the worker fails in a tree without it.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from pathlib import Path


def _import_checkout_mpemba(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import mpemba

    if Path(mpemba.__file__).resolve().parent != (src / "mpemba").resolve():
        raise ImportError(f"mpemba was imported from {mpemba.__file__}, not from {src}")


def _run_ops(wl, seconds: float, tracer, calibration_s) -> list[dict]:
    """Ops in a closed loop for ``seconds``; each op's ``cal_s`` is the mean of
    the calibration kernel's times just before and just after it."""
    ops = []
    cal = calibration_s()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = wl.op(i)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed op is counted, and the loop goes on
            elapsed = time.perf_counter() - t0
            result, problems, shortfalls = None, [f"{type(exc).__name__}: {exc}"], []
        if tracer is not None:
            tracer.op = None
        cal_after = calibration_s()
        record = {"op": i, "s": elapsed, "cal_s": (cal + cal_after) / 2}
        cal = cal_after
        if result is not None:
            problems, shortfalls = wl.check(result)
        record["problems"] = problems
        record["shortfalls"] = shortfalls
        record["digests"] = wl.digests()
        ops.append(record)
        i += 1
    return ops


def main(req: dict) -> dict:
    root = Path(req["root"])
    _import_checkout_mpemba(root)
    mode = req["mode"]
    if mode == "sweep":
        import sweep

        return sweep.run(req["n_seeds"])
    if mode == "scan":
        import scan

        return scan.run()

    import workloads
    from tracing import Tracer

    out = Path(req["out"])
    (out / "files").mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if req.get("trace") else None
    wl = workloads.WORKLOADS[req["workload"]](root, out / "files", req["seed"], tracer)
    wl.setup()
    setup_s = time.perf_counter() - req["spawned"]
    calibrate = functools.partial(workloads.calibration_s, wl.KERNEL)
    setup_cal_s = calibrate()
    if mode == "setup":
        return {"setup_s": setup_s, "cal_s": setup_cal_s}

    ops = _run_ops(wl, req["seconds"], tracer, calibrate)
    if tracer is not None:
        tracer.restore()
    reply = {
        "setup_s": setup_s,
        "cal_s": setup_cal_s,
        "ops": ops,
        "oracle": workloads.oracle_check(req["seed"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(out / "spans.json")
        reply["spans"] = tracer.summary()
    return reply


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    # one CPU for the whole run, so the calibration kernel and the ops it
    # brackets always run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reply = main(request)
    if request.get("stamp"):
        import stamp

        reply["stamp"] = stamp.collect(Path(request["root"]))
    print(json.dumps(reply))
