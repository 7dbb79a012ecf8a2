"""Benchmark of conflab's canonical experiments at acceptance scale.

    python3 perfbench/run.py --workload flat-identity --seed 2026 --seconds 30 --trace 0

Run from anywhere; it measures the checkout it sits in.  Every measurement
is a fresh worker process (worker.py).  With ``--trace 0`` it times set-up
in several fresh interpreters, then runs the workload once untraced and
reports the end-to-end metrics named in BENCHMARK.json; its times are
corrected for the speed of the core, as the worker's SpeedSampler measured
it during the call, and also printed as measured.  With ``--trace 1``
it runs the workload once with every layer traced and reports the per-layer
metrics.  A run is one ``run(spec)`` call whatever ``--seconds`` says, so
every commit is measured by the same statistic; ``--seconds`` is only
recorded.  Every run checks the
experiment's acceptance flags and that report.json is byte-identical to the
first run of the same workload and seed on the same ``src`` tree; the flags
named in ``workloads.SEED_SENSITIVE`` are reported but not gated.  It prints
one line per metric, then the result as one JSON line, and writes the full
record, with provenance, under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import layer_metrics
from workloads import FLAGS, SEED_SENSITIVE, spec_doc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # the run worker's own set-up counts as one
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _worker(args, deadline):
    """Run worker.py; return (seconds to its ``ready`` line, its last line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return setup_s, lines[-1] if lines else ""


def _git_commit():
    if not (ROOT / ".git").exists():  # a bare copy of the tree
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    """SHA-256 of every file under ``src``, so a commit's outputs are only
    compared with outputs of the same code."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check(workload, seed, src_digest, call):
    """(attempted, failed, seed_flags) of the call.

    The gated operations are every flag the call must emit and its
    determinism check.  A seed-sensitive flag counts there only if it is
    missing; its verdict is returned in ``seed_flags`` instead.
    """
    ref = STATE / "reports" / f"{workload}-{seed}-{src_digest[:16]}.sha256"
    ids = set(FLAGS[workload]) | set(call["flags"])
    loose = set(SEED_SENSITIVE.get(workload, ())) & set(call["flags"])
    failed = sum(not call["flags"].get(cid, False) for cid in ids - loose)
    digest = call["report_sha256"]
    if digest is not None and not ref.exists():
        ref.parent.mkdir(parents=True, exist_ok=True)
        ref.write_text(digest)
    failed += digest is None or digest != ref.read_text()
    seed_flags = {cid: call["flags"][cid] for cid in sorted(loose)}
    return len(ids - loose) + 1, failed, seed_flags


def measure(workload, seed, seconds, trace):
    """The full record of one benchmark run."""
    if not (ROOT / "src" / "conflab" / "__init__.py").is_file():
        raise BenchError(f"no conflab sources under {ROOT / 'src'}")
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(["setup", workload, seed], deadline)[0])
    setup_s, line = _worker(["run", workload, seed, int(trace)], deadline)
    setups.append(setup_s)
    result = json.loads(line)
    call = result["call"]
    src_digest = _src_digest()
    attempted, failed, seed_flags = _check(workload, seed, src_digest, call)
    if trace:
        values = layer_metrics(result["layers"])
        values["trace.wall_s"] = call["wall_s"]
        values["flags.seed_sensitive_failed"] = sum(not ok for ok in seed_flags.values())
    else:
        if not call["probe_s"]:
            raise BenchError("the speed probe took no sample during the call")
        speed = call["ref_probe_s"] / call["probe_s"]
        values = {
            "wall_ref_s": call["wall_s"] * speed,
            "cpu_ref_s": call["cpu_s"] * speed,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    result["provenance"].update(
        git_commit=_git_commit(), src_sha256=src_digest, workload=workload, seed=seed,
        seconds=seconds, trace=trace,
        spec=spec_doc(workload, seed),
    )
    return {
        "provenance": result["provenance"],
        "attempted": attempted,
        "failed": failed,
        "seed_sensitive_flags": seed_flags,
        "setup_samples_s": setups,
        "call": call,
        "layers": result.get("layers"),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FLAGS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        metrics = {
            m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]} for m in wanted
        }
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(dict(record, metrics=metrics), indent=1))
    for key, m in metrics.items():
        print(f"{key:<44} {m['value']:>16.6f} {m['unit']}")
    if not args.trace:  # as measured, before the speed correction
        call = record["call"]
        print(f"{'wall_s':<44} {call['wall_s']:>16.6f} s")
        print(f"{'cpu_s':<44} {call['cpu_s']:>16.6f} s")
        print(f"{'probe_ms':<44} {call['probe_s'] * 1e3:>16.6f} ms ({call['probe_samples']} samples)")
    attempted, failed = record["attempted"], record["failed"]
    seed_flags = record["seed_sensitive_flags"]
    seed_failed = sorted(cid for cid, ok in seed_flags.items() if not ok)
    # every operation counts here; the gate below leaves out seed-sensitive flags
    total = attempted + len(seed_flags)
    print(
        f"{'fail_ratio':<44} {(failed + len(seed_failed)) / total:>16.6f} "
        f"({failed + len(seed_failed)} of {total} operations; "
        f"seed-sensitive, not gated: {', '.join(seed_failed) or 'none'} failed)"
    )
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
