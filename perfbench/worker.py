"""One benchmark pass in a fresh interpreter; started by run.py.

Protocol on stdout: ``READY`` once imports, inputs and the untimed warm-up op
are done (the parent times set-up up to this line), then one ``RESULT <json>``
line after the timed pass.  The reference load (reference.py) runs right
after ``READY`` and right after the pass, outside both timings.  Ops run one after another, each starting only
when the previous one has finished.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _env() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": _openblas_threads()}


def _digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


def run_op(op, record: dict) -> tuple[float, dict | None]:
    """Time op.call(), then check its output untimed; record any failure."""
    start = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # a failed op is counted, the pass goes on
        elapsed = time.perf_counter() - start
        record["failures"].append(f"{op.name}: {type(exc).__name__}: {exc}")
        return elapsed, None
    elapsed = time.perf_counter() - start
    try:
        checked = op.check(value)
    except Exception as exc:
        record["failures"].append(f"{op.name}: check: {type(exc).__name__}: {exc}")
        return elapsed, None
    return elapsed, checked


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the traced spans to")
    ap.add_argument("--tmp", required=True, help="scratch directory for CLI outputs")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import critsys
    if not os.path.abspath(critsys.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"critsys imported from {critsys.__file__}, not {SRC}")
    import reference
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    tmp = tempfile.mkdtemp(prefix="cli-", dir=args.tmp)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        record = {"failures": [], "attempted": 1 + len(wl.ops), "op_s": {},
                  "err": {}, "digest": {}, "bytes": 0, "rows": 0}
        run_op(wl.ops[0], record)  # warm-up, part of set-up
        print("READY", flush=True)
        record["ref_s"] = [reference.reference_s()]

        outs = []
        for i, op in enumerate(wl.ops):
            if tracer:
                tracer.op = i
            elapsed, checked = run_op(op, record)
            if tracer:
                tracer.op = None
            record["op_s"][op.name] = elapsed
            outs.append((op, checked))
        record["ref_s"].append(reference.reference_s())
        pass_failed = sum(1 for _, checked in outs if checked is None)
        record["pass_s"] = sum(record["op_s"].values())

        for op, checked in outs:
            if checked is None:
                continue
            for key, val in checked.get("err", {}).items():
                record["err"][key] = max(val, record["err"].get(key, 0.0))
            record["digest"][op.name] = _digest(checked.get("out"))
            record["bytes"] += checked.get("bytes", 0)
            record["rows"] += checked.get("rows", 0)

        if not tracer:
            for key in wl.probes:
                record["attempted"] += 1
                try:
                    record["err"][key] = workloads.PROBES[key]()
                except Exception as exc:
                    record["failures"].append(f"probe {key}: {type(exc).__name__}: {exc}")

        if tracer:
            criteria = [(label, fn.__name__) for label, fn in critsys.acceptance.ALL_CRITERIA]
            layers = tracing.layer_metrics(tracer.spans, criteria)
            layers["acceptance.failed"] = pass_failed if args.workload == "gate" else 0
            layers["cli.bytes_written"] = record["bytes"]
            layers["cli.rows_written"] = record["rows"]
            record["layers"] = layers
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump(tracer.serializable(), fh)
        record["env"] = _env()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
