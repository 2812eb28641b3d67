"""critsys benchmark: the gate, cli and large workloads in one command.

    python3 perfbench/run.py --workload gate|cli|large --seed N --seconds S --trace 0|1

Run it from the repository root; critsys is imported from ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the metrics BENCHMARK.json lists, with its
units); the line before it carries sample counts, quartiles, per-op medians
and the environment.  Reports and traced spans go to perfbench/out/.

One closed-loop caller: passes run one at a time, each in a fresh interpreter
(worker.py) that imports critsys, builds the seeded inputs, runs one untimed
warm-up op, and then one timed pass over the workload's op list.  A fresh
process per pass makes every pass pay what a fresh ``critsys verify-all``
pays; in-process state such as ``acceptance._sweep_cache`` cannot carry over.
Passes start until ``--seconds`` have gone by, with at least MIN_PASSES.

The host's speed drifts by 20-35% over minutes, so every worker also times
a fixed reference load (reference.py) right after set-up and right after its
pass.  ``setup_s`` and ``pass_s`` are the measured wall times rescaled to the
speed at which that load takes ``reference.NOMINAL_S``: set-up by the mean of
the references just before and just after it, a pass by the two around it.
The report line keeps the raw wall times and the reference times too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus ``trace.overhead``.  Every run checks that all passes produced
the same op outputs (traced or not); a traced run also checks that every
traced pass did the same work, which catches a pass that skips work.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_PASSES = 3
RUN_LIMIT_S = 150.0  # no pass starts that could end after this

# per-layer work counts that must repeat exactly from pass to pass
WORK_COUNTS = ("calls", "fd_nodes", "eval_points", "shots", "terminated_shots",
               "kernel_evals", "newton_calls", "planes", "errors",
               "bytes_written", "rows_written")


def work_mismatches(layers: list[dict]) -> list[str]:
    """Work counts that differ between passes over the same inputs."""
    return [f"passes did different work: {key} {[lay[key] for lay in layers]}"
            for key in layers[0]
            if key.split(".")[-1] in WORK_COUNTS and len({lay[key] for lay in layers}) != 1]


class BenchError(Exception):
    pass


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """One BLAS thread unless the caller asks for more, never more than nproc:
    no workload runs faster on two (large: 1.18-1.51 s vs 1.29-1.48 s for the
    GL HLS op), and idle BLAS threads only add noise."""
    env = dict(os.environ)
    cap = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            cap_var = min(int(env[var]), cap) if var in env else 1
        except ValueError:
            cap_var = 1
        env[var] = str(max(cap_var, 1))
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, seed: int, traced: bool, tag: str,
               deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result record)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--tmp", OUT]
    if traced:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.json")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env())
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker exited with {code} (setup line {ready.strip()!r})")
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if len(lines) != 1:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[0][len("RESULT "):])


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "max": values[-1]}


def machine_env() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            try:
                with open(os.path.join(d, "level")) as a, open(os.path.join(d, "type")) as b, \
                        open(os.path.join(d, "size")) as c:
                    caches[f"L{a.read().strip()}{b.read().strip()[0].lower()}"] = c.read().strip()
            except OSError:
                continue
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "critsys")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": _nproc(),
            "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
            "caches": caches, "git_commit": commit, "src_sha256": src.hexdigest()[:16],
            "blas_thread_cap": worker_env()["OPENBLAS_NUM_THREADS"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = declared("per_layer" if trace else "end_to_end")
    os.makedirs(OUT, exist_ok=True)
    t0 = time.monotonic()
    deadline = t0 + 170.0
    modes = [False, True] if trace else [False]
    runs: dict[bool, list] = {False: [], True: []}
    durations = []
    prev_ref = None  # the reference timed at the end of the previous worker
    i = 0
    while True:
        traced = modes[i % len(modes)]
        tag = f"{workload}-s{seed}-{os.getpid()}-{i}"
        w0 = time.monotonic()
        setup_s, rec = run_worker(workload, seed, traced, tag, deadline)
        ref_a, ref_b = rec["ref_s"]
        setup_ref = ref_a if prev_ref is None else (prev_ref + ref_a) / 2.0
        rec["setup_wall_s"], rec["pass_wall_s"] = setup_s, rec["pass_s"]
        rec["setup_s"] = setup_s * reference.NOMINAL_S / setup_ref
        rec["pass_s"] = rec["pass_s"] * reference.NOMINAL_S / ((ref_a + ref_b) / 2.0)
        prev_ref = ref_b
        runs[traced].append(rec)
        durations.append(time.monotonic() - w0)
        i += 1
        # stop when the next round of passes would mostly fall past --seconds
        elapsed = time.monotonic() - t0
        ahead = len(modes) * statistics.median(durations)
        enough = all(len(runs[m]) >= MIN_PASSES for m in modes)
        if i % len(modes) == 0 and ((enough and elapsed + ahead / 2 > seconds)
                                    or elapsed + 1.2 * ahead > RUN_LIMIT_S):
            break

    records = [r for m in modes for r in runs[m]]
    problems = []
    for r in records:
        problems += r["failures"]
    digests = {json.dumps(r["digest"], sort_keys=True) for r in records}
    if len(digests) != 1:
        problems.append("op outputs differ between passes (traced vs untraced or run to run)")

    untraced = runs[False]
    pass_s = [r["pass_s"] for r in untraced]
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "passes": {("traced" if m else "untraced"): len(runs[m]) for m in modes},
              **{key: quartiles([r[key] for r in untraced])
                 for key in ("pass_s", "setup_s", "pass_wall_s", "setup_wall_s")},
              "ref_s": quartiles([x for r in records for x in r["ref_s"]]),
              "untraced_walls": [[round(r[k], 6) for k in ("setup_wall_s", "pass_wall_s")]
                                 + [round(x, 6) for x in r["ref_s"]] for r in untraced],
              "ref_nominal_s": reference.NOMINAL_S,
              "op_s_median": {k: statistics.median(r["op_s"][k] for r in untraced)
                              for k in untraced[0]["op_s"]},
              "env": {**machine_env(), **untraced[0]["env"]}}

    if not trace:
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in untraced),
                   "pass_s": statistics.median(pass_s),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
        for key in (k for k in spec if k.startswith("err.")):
            vals = [r["err"][key] for r in untraced if key in r["err"]]
            if len(vals) == len(untraced):
                metrics[key] = statistics.median(vals)
    else:
        layers = [r["layers"] for r in runs[True]]
        problems += work_mismatches(layers)
        metrics = {k: statistics.median(lay[k] for lay in layers) for k in layers[0]}
        traced_pass = statistics.median(r["pass_s"] for r in runs[True])
        metrics["trace.overhead"] = traced_pass / statistics.median(pass_s) - 1.0
        report["traced_pass_s"] = quartiles([r["pass_s"] for r in runs[True]])

    problems += [f"{k} not measured" for k in spec if k not in metrics]
    report["failures"] = problems[:20]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    with open(os.path.join(OUT, f"report-{workload}-s{seed}-t{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return {"report": report,
            "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": unit}
                                   for k, unit in spec.items() if k in metrics}}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("gate", "cli", "large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "critsys", "__init__.py")):
        print(f"error: no critsys sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
