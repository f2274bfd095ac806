"""Layered benchmark of dspkit: exact, relations, realize and cli workloads.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the repository root; dspkit is imported from ./src.  Each run sets
up its inputs from --seed, then repeats whole rounds of the workload's
operations until --seconds have passed, checking every output.  The last
stdout line is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics: rounds alternate between untraced and
traced (their difference is the tracing overhead), then the workload's probes,
then a smoke-sized traced round of every other workload for the layers this
one does not reach.  Spans are written to .perfbench/ when the run ends.
--smoke runs one tiny round of every workload with all checks on.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and its children, set before numpy loads.
# With OpenBLAS's default of one thread per core, any other load on the
# machine slows the Gauss-Newton kernel many-fold and runs stop repeating.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from meter import Meter  # noqa: E402
from reference import CheckError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("exact", "relations", "realize", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dspkit, dspkit.cli; "
    "print(time.perf_counter() - t)"
)


def _import_program():
    """Import dspkit from ./src and nowhere else; None when it is absent."""
    if not (SRC / "dspkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import dspkit

    if Path(dspkit.__file__).resolve().parent != (SRC / "dspkit").resolve():
        return None
    return dspkit


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_header() -> dict:
    import numpy as np

    from dspkit.oracle import backend_name

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend_name(),
    }


def _load(name: str):
    return importlib.import_module(f"wl_{name}")


def _quantile(values, q: int) -> float:
    """q-th decile (q=5 median, q=9 ninetieth percentile)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Pass:
    """Outcome of timing whole rounds of one workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.rounds = 0
        self.busy_s = 0.0
        self.latencies: list[float] = []
        self.windows: list[tuple[int, float]] = []  # (ok ops, busy seconds)
        self.correct = True

    def extend(self, other: "Pass") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.ok += other.ok
        self.rounds += other.rounds
        self.busy_s += other.busy_s
        self.latencies += other.latencies
        self.windows += other.windows
        self.correct = self.correct and other.correct

    def ops_per_s(self) -> float:
        """Median over windows of completed operations per busy second; a
        median keeps a stall of the machine in one window out of the figure."""
        rates = [ok / busy for ok, busy in self.windows if busy > 0]
        return statistics.median(rates) if rates else 0.0


def run_rounds(wl, state, meter, seconds: float, max_rounds=None) -> Pass:
    """Repeat whole rounds until `seconds` of wall time have passed.

    Latency and throughput count only time spent inside program calls, not
    the benchmark's own checks.
    """
    result = Pass()
    start = time.perf_counter()
    while True:
        items = wl.round_ops(state)
        per_window = max(1, len(items) // wl.WINDOWS_PER_ROUND)
        window_ok, window_busy = 0, 0.0
        for i, item in enumerate(items, start=1):
            meter.program_s = 0.0
            ok = False
            with meter.span("op." + wl.NAME):
                try:
                    ok = wl.run_op(state, item, meter)
                except CheckError as exc:
                    result.correct = False
                    print(f"CHECK FAILED [{wl.NAME}] {exc}", file=sys.stderr)
                    ok = None
                except Exception:  # an unexpected failure counts as failed
                    traceback.print_exc()
                    ok = False
            result.attempted += 1
            result.busy_s += meter.program_s
            window_busy += meter.program_s
            if ok:
                result.ok += 1
                window_ok += 1
                result.latencies.append(meter.program_s)
            elif ok is False:
                result.failed += 1
            if i % per_window == 0 or i == len(items):
                result.windows.append((window_ok, window_busy))
                window_ok, window_busy = 0, 0.0
        result.rounds += 1
        if max_rounds is not None and result.rounds >= max_rounds:
            break
        if time.perf_counter() - start >= seconds:
            break
    return result


def timed_setup(wl, seed: int, meter, smoke: bool):
    """Set the workload up SETUP_REPEATS times; (state, median seconds)."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.cleanup(state)
        wl.reset_caches()
        t0 = time.perf_counter()
        with meter.span("setup." + wl.NAME):
            state = wl.setup(seed, meter, smoke)
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def import_seconds() -> float:
    """Median time to import the program, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(import_s: float, setup_s: float, p: Pass) -> dict:
    """setup_s is the median import time plus the median input set-up."""
    lat = sorted(p.latencies) or [0.0]
    values = {
        "setup_s": import_s + setup_s,
        "ops_per_s": p.ops_per_s(),
        "op_p50_ms": _quantile(lat, 5) * 1e3,
        "op_p90_ms": _quantile(lat, 9) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_units() -> dict:
    units = {"trace.overhead_pct": "%"}
    for name in WORKLOADS:
        units.update(_load(name).LAYER_UNITS)
    return units


def smoke_round(wl, seed: int):
    """One traced round of the workload's smoke-sized inputs, then its probes:
    (pass, per-layer metrics, meter)."""
    m = Meter(trace=True)
    wl.reset_caches()
    with m.span("setup." + wl.NAME):
        state = wl.setup(seed, m, True)
    try:
        p = run_rounds(wl, state, m, 0.0, max_rounds=1)
        with m.span("probe." + wl.NAME):
            wl.probe(state, m)
        return p, wl.layer_metrics(m, state, p.rounds), m
    finally:
        wl.cleanup(state)


def run_traced(name: str, seed: int, seconds: float, out_dir: Path):
    """Per-layer metrics for workload `name` plus smoke rounds of the others."""
    values = {}
    wl = _load(name)
    traced_meter = Meter(trace=True)
    wl.reset_caches()
    with traced_meter.span("setup." + wl.NAME):
        state = wl.setup(seed, traced_meter, False)
    try:
        # rounds alternate, so that both passes see the same machine and mix
        untraced, traced = Pass(), Pass()
        plain_meter = Meter(trace=False)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            untraced.extend(run_rounds(wl, state, plain_meter, 0.0, max_rounds=1))
            traced.extend(run_rounds(wl, state, traced_meter, 0.0, max_rounds=1))
        with traced_meter.span("probe." + wl.NAME):
            wl.probe(state, traced_meter)
        values.update(wl.layer_metrics(traced_meter, state, traced.rounds))
    finally:
        wl.cleanup(state)
    base = untraced.ops_per_s()
    values["trace.overhead_pct"] = (base - traced.ops_per_s()) / base * 100.0 if base else 0.0
    correct = untraced.correct and traced.correct
    traced_meter.write(out_dir / f"trace-{name}-seed{seed}.json")
    for other in WORKLOADS:
        if other != name:
            smoke, layers, m = smoke_round(_load(other), seed)
            correct = correct and smoke.correct
            values.update(layers)
            m.write(out_dir / f"trace-{name}-seed{seed}-smoke-{other}.json")
    units = layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}
    return correct, untraced.attempted + traced.attempted, untraced.failed + traced.failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny round of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    dspkit = _import_program()
    if dspkit is None:
        print(f"error: dspkit sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in WORKLOADS:
        _load(name)
    print(json.dumps({"machine": machine_header()}), flush=True)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    if args.smoke:
        correct, attempted, failed = True, 0, 0
        for name in WORKLOADS if args.workload is None else (args.workload,):
            p, layers, _ = smoke_round(_load(name), args.seed)
            print(json.dumps({"workload": name, "correct": p.correct, "attempted": p.attempted,
                              "failed": p.failed, "layers": layers}), flush=True)
            correct &= p.correct
            attempted += p.attempted
            failed += p.failed
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0 if correct else 1

    if args.trace:
        correct, attempted, failed, metrics = run_traced(
            args.workload, args.seed, args.seconds, out_dir
        )
    else:
        wl = _load(args.workload)
        meter = Meter(trace=False)
        state, setup_s = timed_setup(wl, args.seed, meter, smoke=False)
        try:
            p = run_rounds(wl, state, meter, args.seconds)
        finally:
            wl.cleanup(state)
        correct, attempted, failed = p.correct, p.attempted, p.failed
        metrics = end_to_end(import_seconds(), setup_s, p)
        print(json.dumps({"rounds": p.rounds, "ok": p.ok, "busy_s": p.busy_s}), flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
