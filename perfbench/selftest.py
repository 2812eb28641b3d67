"""Self-tests of the benchmark itself (about one minute):

    python3 perfbench/selftest.py

1. Traced and untraced runs of every workload's ops give the same outputs.
2. The work check catches a pass that skips work: two in-process calls of
   ``check_uniqueness_witness`` differ (the second reuses the module-level
   sweep cache), and ``work_mismatches`` must report it.  The benchmark avoids
   this by running each pass in a fresh process.
3. ``run.py --trace 1`` on ``cli`` passes its own checks.
4. Run from a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits nonzero without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import _digest  # noqa: E402


def outputs(tracer, seed: int = 5) -> dict:
    digests = {}
    for name, build in workloads.WORKLOADS.items():
        tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            for i, op in enumerate(build(seed, tmp).ops):
                tracer.op = i
                value = op.call()
                tracer.op = None
                digests[f"{name}/{op.name}"] = _digest(op.check(value).get("out"))
        finally:
            shutil.rmtree(tmp)
    return digests


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    failures = []

    plain = outputs(tracing.Tracer())  # not installed: op ids alone record nothing
    tracer = tracing.Tracer()
    tracer.install()
    traced = outputs(tracer)
    differ = sorted(k for k in plain if plain[k] != traced.get(k))
    if differ or plain.keys() != traced.keys():
        failures.append(f"traced outputs differ: {differ}")
    print(f"1. traced == untraced outputs for {len(plain)} ops: {not differ}")

    from critsys import acceptance
    acceptance._sweep_cache = None  # start cold, as a fresh process does
    per_pass = []
    for i in range(2):
        tracer.spans.clear()
        tracer.op = i
        acceptance.check_uniqueness_witness()
        tracer.op = None
        per_pass.append(tracing.layer_metrics(tracer.spans, []))
    caught = run.work_mismatches(per_pass)
    if not any("shooting.shots" in c for c in caught):
        failures.append("a pass that reused the sweep cache was not caught")
    print(f"2. in-process reuse caught: {caught[:2]}")

    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli",
                           "--seed", "2", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    correct = proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    if not correct:
        failures.append(f"traced cli run failed: {(proc.stdout + proc.stderr)[-500:]}")
    print(f"3. traced cli run correct: {correct}")

    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gate",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    print(f"4. bare directory exits {proc.returncode} with no result")

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
