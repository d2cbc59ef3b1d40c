"""Benchmark of cesarobench: one workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from its src/
directory.  The run sets the BLAS thread variables to 1 before numpy is
imported, times the set-up in fresh interpreters, then repeats whole rounds
of the workload's operations until S seconds have passed.  Outputs are
checked against oracle.py after the rounds.  The last line of stdout is a
JSON object with correct, attempted, failed and metrics:

  --trace 0  end-to-end metrics: wall_s (median round), setup_s (median of
             several set-ups) and peak_rss_mb;
  --trace 1  per-layer metrics per round, from wrappers around the
             program's functions; the spans go to perfbench/out/trace/.

Earlier stdout lines record the environment and each round.  See README.md.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("CESARO_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify_panel", "norm_profile_large", "paper_checks")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def steal_ticks() -> int | None:
    """Machine-wide steal ticks from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _delta(before, after):
    return None if before is None or after is None else after - before


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "CESARO_THREADS": os.environ.get("CESARO_THREADS"),
    }


def source_digest() -> str:
    """Digest of the program's sources, naming the code a run measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def time_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(OUT)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def fingerprint(obj, h=None) -> str:
    """Digest of a round's outputs, exact to the bit."""
    import numpy

    h = hashlib.sha256() if h is None else h
    if isinstance(obj, numpy.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            fingerprint(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            fingerprint(item, h)
    elif hasattr(obj, "__dataclass_fields__"):
        fingerprint(vars(obj), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


def run_rounds(wl, seconds: float, tracer) -> tuple[list, list, list, int]:
    """Whole rounds until `seconds` have passed.

    Returns the rounds' records, the first round's outputs, a fingerprint
    of every round's outputs and the failed count.  Only the first round's
    outputs are kept, so memory does not grow with the number of rounds.
    """
    rounds, fingerprints, first, failed = [], [], None, 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        steal0 = steal_ticks()
        t0 = time.perf_counter()
        outputs = []
        for op in wl.ops:
            try:
                if tracer is None:
                    outputs.append(op.call())
                else:
                    with tracer.span(f"bench.{wl.name}"):
                        outputs.append(op.call())
            except Exception as exc:  # an operation that fails is counted, not fatal
                print(f"failed: {op.name}: {exc!r}", file=sys.stderr)
                outputs.append(None)
                failed += op.weight
        wall = time.perf_counter() - t0
        rounds.append({"wall_s": wall, "steal_ticks": _delta(steal0, steal_ticks())})
        print("round " + json.dumps({"index": len(rounds), **rounds[-1]}), flush=True)
        outputs = wl.collect(outputs)
        fingerprints.append(fingerprint(outputs))
        if first is None:
            first = outputs
    return rounds, first, fingerprints, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cesarobench" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    steal_start = steal_ticks()

    import workloads

    workloads.prepare(args.workload, OUT)
    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    import cesarobench

    if Path(cesarobench.__file__).resolve().parent != SRC / "cesarobench":
        print(f"error: imported {cesarobench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env), flush=True)

    wl = workloads.setup(args.workload, args.seed, OUT)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rounds, first, fingerprints, failed = run_rounds(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle

    digest = source_digest()
    problems = oracle.check(wl, first, OUT, digest)
    if len(set(fingerprints)) > 1:
        problems.append(f"outputs differ between rounds: {fingerprints}")
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    walls = [r["wall_s"] for r in rounds]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_wall_s": walls,
        "setup_runs_s": setups,
        "steal_ticks": _delta(steal_start, steal_ticks()),
        "source_digest": digest,
        "problems": len(problems),
    }
    print("run " + json.dumps(record), flush=True)

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        path = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"env": env, **record})
        per_round = tracer.metrics(len(rounds))
        metrics = {name: (per_round[name], unit) for name, unit in tracing.METRICS.items()}
    result = {
        "correct": not problems,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
