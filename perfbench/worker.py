"""One benchmark process, started fresh by run.py for every measurement.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run <workload> <seed> <trace 0|1>

Both modes import conflab from the checkout's ``src`` and parse the
workload's spec, then print ``ready`` so the parent can time set-up from
process start.  ``setup`` stops there.  ``run`` calls
``conflab.experiments.run(spec)`` once and prints one JSON line with what
the call measured; an untraced call is timed together with the speed of
the core it ran on (SpeedSampler), a traced one with its spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy

from workloads import spec_doc

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"

PROBE_INTERVAL_S = 0.05
# mean probe time at the reference core speed: about the fastest mean seen
# during a call on the 2-vCPU Xeon VM the benchmark was tuned on
REF_PROBE_S = 3.0e-4


def _probe() -> None:
    """A fixed piece of interpreter-bound numpy scalar work (about 0.3 ms)."""
    x = numpy.float64(0.5)
    for _ in range(600):
        x = numpy.sqrt(x * x + 1.0) - 0.9


class SpeedSampler:
    """Times ``_probe`` every ``PROBE_INTERVAL_S`` of wall time in a block.

    SIGALRM runs the probe in the main thread between two bytecodes of the
    measured call, so it runs on the same core, in the same state, as the
    call.  On a shared VM the speed of a core drifts by up to half with the
    load of other tenants, over seconds and over minutes; the call's time
    follows the probe's mean time (correlation 0.92-0.98 over nine runs of
    each workload), so their ratio measures the work done, not the
    machine's state.  The probe adds under 1% to the call.
    """

    def __enter__(self):
        self.samples = []
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def provenance() -> dict:
    import numpy
    import scipy

    import conflab

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "conflab": conflab.__version__,
        "openblas_threads": _openblas_threads(),
        "platform": platform.platform(),
    }


def _call(experiments, spec, sample_speed) -> dict:
    """One run(spec) call: wall and CPU time, flags, report digest, and with
    ``sample_speed`` the mean probe time of a SpeedSampler over the call."""
    error = None
    flags = {}
    sampler = SpeedSampler() if sample_speed else contextlib.nullcontext()
    with sampler:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            report = experiments.run(spec)
            flags = {f["criterion"]: f["pass"] for f in report.flags}
        except Exception as exc:  # a failing run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    digest = None
    if error is None:
        digest = hashlib.sha256((Path(spec.output_dir) / "report.json").read_bytes()).hexdigest()
    out = {"wall_s": wall, "cpu_s": cpu, "flags": flags, "error": error, "report_sha256": digest}
    if sample_speed:
        out["probe_s"] = statistics.fmean(sampler.samples) if sampler.samples else None
        out["probe_samples"] = len(sampler.samples)
        out["ref_probe_s"] = REF_PROBE_S
    return out


def main(argv) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from conflab import experiments

    spec = experiments.ExperimentSpec.from_dict(spec_doc(workload, seed))
    print("ready", flush=True)
    if mode == "setup":
        return
    traced = argv[3] == "1"
    result = {"provenance": provenance()}
    if traced:
        from tracing import Tracer

        with Tracer() as tracer:
            result["call"] = _call(experiments, spec, sample_speed=False)
        result["layers"] = tracer.layer_stats()
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans = [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in tracer.spans
        ]
        (RESULTS / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(spans))
    else:
        result["call"] = _call(experiments, spec, sample_speed=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
