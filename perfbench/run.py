#!/usr/bin/env python3
"""End-to-end benchmark of the hbs library: oracle set-up, black-box
compression, verification, single and block applies, and a file round
trip, timed from outside through the library's public functions.

    python3 perfbench/run.py --workload synthetic-fine --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
BLAS_THREADS = 1
POWER_ITERS = 20
BLOCK_COLUMNS = 64
MIN_COVERAGE = 0.95
MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    problem: str
    n: int
    rank: int
    leaf: int
    probes: int
    rel_err_tol: float
    apply_calls: int  # single-vector applies per direction, twice per pass
    block_calls: int  # block applies and save/load round trips, twice per pass


WORKLOADS = {
    # 2047 nodes, 16-row leaves: per-node Python overhead dominates.
    "synthetic-fine": Workload("synthetic", 16384, 15, 30, 45, 1e-9, 4, 2),
    # 255 nodes, 128-row leaves: LAPACK work on large blocks dominates.
    "synthetic-coarse": Workload("synthetic", 16384, 40, 160, 168, 1e-9, 4, 2),
    # Dense double-layer operator: O(n^2) assembly and dense GEMM products.
    "bie-dl": Workload("bie-dl", 4800, 30, 60, 90, 1e-8, 8, 4),
}

# name -> unit of the end-to-end metrics, all lower is better
END_TO_END = {
    "setup_s": "s",
    "compress_s": "s",
    "verify_s": "s",
    "apply_s": "s",
    "apply_t_s": "s",
    "apply_block_s": "s",
    "save_s": "s",
    "load_s": "s",
    "run_s": "s",
    "floats_per_dof": "floats/dof",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import hbs from this checkout's src/, and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hbs
    except ImportError as exc:
        sys.exit(f"cannot import hbs from {src}: {exc}")
    if not Path(hbs.__file__).resolve().is_relative_to(src):
        sys.exit(f"hbs was imported from {hbs.__file__}, not from {src}")
    return hbs


def cache_bytes() -> dict[str, int]:
    """Unified L2 and L3 sizes of CPU 0, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and size.endswith("K"):
            sizes[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return sizes


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        **cache_bytes(),
    }


class Gates:
    """Correctness checks; a failed check counts as one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pass(hbs, wl: Workload, seed: int, tracer, gates: Gates, traced: bool) -> dict:
    """One full pipeline: set-up, compression, short calls, verification,
    short calls again.  Returns the pass's timings and counts."""
    # Imported here, not at the top: numpy must load after cap_blas_threads().
    import numpy as np
    from hbs.flops import count_madds

    from refclock import Stopwatch
    from tracer import instrument

    bench = importlib.import_module("hbs.bench")
    fz = importlib.import_module("hbs.factorization")
    config = hbs.CompressionConfig(
        rank=wl.rank, leaf_threshold=wl.leaf, probes=wl.probes, seed=seed
    )
    q = np.random.default_rng([seed, 7]).standard_normal((wl.n, BLOCK_COLUMNS))
    path = WORK_DIR / f"pass-{os.getpid()}.hbsf"

    def short_calls(watch, f):
        """The sub-second operations; they run twice per pass, before and
        after verification, so that their samples spread over the run."""
        with watch.step("apply"):
            for _ in range(wl.apply_calls):
                y = watch.call("apply", hbs.apply, f, q[:, 0])
        with watch.step("apply_t"):
            for _ in range(wl.apply_calls):
                watch.call("apply_t", hbs.apply_transpose, f, q[:, 1])
        with watch.step("apply_block"):
            for _ in range(wl.block_calls):
                block = watch.call("apply_block", fz.apply_matrix, f, q)
        for _ in range(wl.block_calls):
            with watch.step("save"):
                watch.call("save", hbs.save_factorization, f, path)
            with watch.step("load"):
                loaded = watch.call("load", hbs.load_factorization, path)
        return y, block, loaded

    with instrument(tracer) if traced else nullcontext():
        watch = Stopwatch(tracer)
        with watch.step("setup"):
            with tracer.span("tree.build"):
                tree = hbs.build_tree(wl.n, wl.leaf)
            s = config.validate_for(tree)
            with tracer.span("operators.build"):
                oracle = bench.build_oracle(wl.problem, wl.n, config)
        with watch.step("compress.sample"):
            samples = hbs.draw_samples(oracle, s, seed)
        with watch.step("compress.sweep"), count_madds() as counter:
            f = hbs.compress_from_samples(samples, tree, config)
        probes = oracle.matvec_count
        short_calls(watch, f)
        with watch.step("verify"):
            rel_err = bench.estimate_rel_err(oracle, f, iters=POWER_ITERS, seed=seed)
        y, block, loaded = short_calls(watch, f)

    # Gates, outside the timed sequence.
    gates.check("probe budget", probes == (s, s), f"{probes} != ({s}, {s})")
    gates.check("rel_err", rel_err <= wl.rel_err_tol, f"{rel_err:.3e} > {wl.rel_err_tol:g}")
    col0_err = np.linalg.norm(block[:, 0] - y) / np.linalg.norm(y)
    gates.check("block column 0", col0_err <= 1e-12, f"rel diff {col0_err:.3e}")
    digest = sha256(path)
    size = path.stat().st_size
    hbs.save_factorization(loaded, path)
    gates.check("load(save(f)) bit-exact", sha256(path) == digest)
    gates.check("loaded copy applies bit-identically", np.array_equal(hbs.apply(loaded, q[:, 0]), y))
    path.unlink()
    coverage = sum(watch.steps_wall.values()) / watch.run_wall
    gates.check("phase coverage", coverage >= MIN_COVERAGE, f"{coverage:.3f} < {MIN_COVERAGE}")

    report = hbs.storage(f)
    return {
        "watch": watch,
        "tracer": tracer,
        "nodes": 2 ** (tree.depth + 1) - 1,
        "coverage": coverage,
        "rel_err": rel_err,
        "compress_madds": counter.madds,
        "cols": oracle.matvec_count,
        "sha256": digest,
        "bytes": size,
        "floats_per_dof": report.floats_per_dof,
        "factorization_bytes": 8 * report.total_floats,
    }


def end_to_end(passes: list[dict], clock: str) -> dict[str, float]:
    """The end-to-end metrics over the untraced passes, in reference
    seconds (`clock="ref"`) or wall seconds (`clock="wall"`)."""

    def seconds(p, wall):
        return p["watch"].ref(wall) if clock == "ref" else wall

    def call(key):
        return statistics.median(seconds(p, t) for p in passes for t in p["watch"].calls_wall[key])

    def step(*names):
        return statistics.median(
            seconds(p, sum(p["watch"].steps_wall[name] for name in names)) for p in passes
        )

    return {
        "setup_s": step("setup"),
        "compress_s": step("compress.sample", "compress.sweep"),
        "verify_s": step("verify"),
        "apply_s": call("apply"),
        "apply_t_s": call("apply_t"),
        "apply_block_s": call("apply_block"),
        "save_s": call("save"),
        "load_s": call("load"),
        "run_s": statistics.median(seconds(p, p["watch"].run_wall) for p in passes),
        "floats_per_dof": passes[0]["floats_per_dof"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(p: dict, untraced_run_s: float) -> dict[str, tuple[str, float]]:
    """Per-layer figures of one traced pass, in wall seconds.  A metric that
    needs a span whose wrapped function has gone is left out."""
    t = p["tracer"]
    steps = p["watch"].steps_wall
    linalg = ("linalg.nullspace", "linalg.col", "linalg.lstsq", "linalg.gaussian")
    sweep_s = steps["compress.sweep"]
    apply_s = t.seconds("factorization.apply")
    save_s = statistics.median(p["watch"].calls_wall["save"])
    load_s = statistics.median(p["watch"].calls_wall["load"])

    def self_s():
        return sweep_s - sum(t.seconds(name, under="compress.sweep") for name in linalg)

    # name -> (unit, span names it needs, value)
    table = {
        "compress.self_s": ("s", linalg, self_s),
        "compress.us_per_node": ("us/node", linalg, lambda: 1e6 * self_s() / p["nodes"]),
        "compress.sample_s": ("s", (), lambda: steps["compress.sample"]),
        "compress.sweep_s": ("s", (), lambda: sweep_s),
        "compress.madds": ("madd", (), lambda: p["compress_madds"]),
        "compress.gflops": ("Gmadd/s", (), lambda: p["compress_madds"] / sweep_s / 1e9),
        "factorization.apply_s": ("s", ("factorization.apply",), lambda: apply_s),
        "factorization.apply_calls": ("count", ("factorization.apply",), lambda: t.calls("factorization.apply")),
        "factorization.apply_madds": ("madd", ("factorization.apply",), lambda: t.madds("factorization.apply")),
        "factorization.apply_gflops": (
            "Gmadd/s",
            ("factorization.apply",),
            lambda: t.madds("factorization.apply") / apply_s / 1e9,
        ),
        "oracle.sample_s": ("s", ("oracle.apply",), lambda: t.seconds("oracle.apply", under="compress.sample")),
        "oracle.verify_s": ("s", ("oracle.apply",), lambda: t.seconds("oracle.apply", under="verify")),
        "oracle.verify_calls": ("count", ("oracle.apply",), lambda: t.calls("oracle.apply", under="verify")),
        "oracle.cols_a": ("count", (), lambda: p["cols"][0]),
        "oracle.cols_at": ("count", (), lambda: p["cols"][1]),
        "bench.verify_hbs_s": (
            "s",
            ("factorization.apply", "oracle.apply"),
            lambda: t.seconds("factorization.apply", under="verify", parent_not="oracle.apply"),
        ),
        "operators.build_s": ("s", (), lambda: t.seconds("operators.build")),
        "tree.build_s": ("s", ("tree.build",), lambda: t.seconds("tree.build", under="setup")),
        "tree.nodes": ("count", (), lambda: p["nodes"]),
        "serialize.bytes": ("B", (), lambda: p["bytes"]),
        "serialize.save_mb_s": ("MB/s", (), lambda: p["bytes"] / 1e6 / save_s),
        "serialize.load_mb_s": ("MB/s", (), lambda: p["bytes"] / 1e6 / load_s),
        "trace.overhead_s": ("s", (), lambda: p["watch"].ref(p["watch"].run_wall) - untraced_run_s),
    }
    for part in ("bases", "discrepancy", "lift", "root"):
        span = f"compress.{part}"
        table[f"{span}_s"] = ("s", (span,), lambda span=span: t.seconds(span))
    for span in linalg:
        table[f"{span}_s"] = ("s", (span,), lambda span=span: t.seconds(span))
        table[f"{span}_calls"] = ("count", (span,), lambda span=span: t.calls(span))
    return {
        metric: (unit, value())
        for metric, (unit, needs, value) in table.items()
        if not t.missing.intersection(needs)
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cap_blas_threads()
    hbs = import_library()
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    wl = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {name}: {wl.problem} n={wl.n} r={wl.rank} m={wl.leaf} s={wl.probes} seed={seed}")

    # Warm-up on a depth-3 tree with the same leaf size and rank; not recorded.
    depth = hbs.build_tree(wl.n, wl.leaf).depth
    run_pass(hbs, replace(wl, n=wl.n >> (depth - 3)), seed, Tracer(), Gates(), traced=False)

    # At least two passes (alternately untraced and traced when tracing),
    # then more while the next pass is expected to end within the budget.
    gates = Gates()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = trace and len(traced) < len(untraced)
        p = run_pass(hbs, wl, seed, Tracer(), gates, traced=trace_this)
        (traced if trace_this else untraced).append(p)
        done = len(untraced) + len(traced)
        if done >= MIN_PASSES and (time.perf_counter() - start) * (done + 1) / done > seconds:
            break

    passes = untraced + traced
    first = passes[0]
    for p in passes[1:]:
        gates.check("same seed, same .hbsf bytes", p["sha256"] == first["sha256"])
        gates.check("oracle column counts repeat", p["cols"] == first["cols"])
        gates.check("compress madds repeat", p["compress_madds"] == first["compress_madds"])
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    print("rel_err " + " ".join(f"{p['rel_err']:.3e}" for p in passes))
    print(f".hbsf sha256 {first['sha256']} ({first['bytes']} bytes)")
    l3 = env.get("l3_bytes")
    print(f"factorization {first['factorization_bytes']} bytes (computed from block shapes)"
          + (f", {first['factorization_bytes'] / l3:.3f} of the {l3}-byte L3" if l3 else ""))
    print("host slowdown per pass " + " ".join(f"{p['watch'].slowdown:.3f}" for p in passes))
    print("phase coverage of run_s " + " ".join(f"{p['coverage']:.4f}" for p in passes))
    for key in ("apply", "apply_t", "apply_block", "save", "load"):
        samples = sorted(p["watch"].ref(t) for p in untraced for t in p["watch"].calls_wall[key])
        tail = len(samples) - 11  # highest order statistic with ten samples above it
        pct = f", p{100 * (tail + 1) // len(samples)} {samples[tail]:.6g}" if tail >= 0 else ""
        print(f"{key}_s samples: {len(samples)}, median {statistics.median(samples):.6g}{pct} (reference s)")

    ref = end_to_end(untraced, "ref")
    wall = end_to_end(untraced, "wall")
    print(f"{'metric':<16} {'value':>12} {'unit':<10} {'wall':>12}")
    for metric, value in ref.items():
        print(f"{metric:<16} {value:>12.6g} {END_TO_END[metric]:<10} {wall[metric]:>12.6g}")

    if trace:
        values: dict[str, tuple[str, list]] = {}
        for p in traced:
            for metric, (unit, value) in per_layer(p, ref["run_s"]).items():
                values.setdefault(metric, (unit, []))[1].append(value)
        metrics = {
            metric: {"value": statistics.median_low(v), "unit": unit}
            for metric, (unit, v) in values.items()
        }
        if "factorization.apply_madds" in values:
            counts = values["factorization.apply_madds"][1]
            gates.check("apply madds repeat", len(set(counts)) == 1, f"{counts}")
        missing = sorted(set().union(*(p["tracer"].missing for p in traced)))
        if missing:
            print("missing (wrapped function not found): " + ", ".join(missing))
        traced[-1]["tracer"].dump(WORK_DIR / f"spans-{name}-seed{seed}.json")
        for metric, entry in metrics.items():
            print(f"{metric:<28} {entry['value']:>12.6g} {entry['unit']}")
    else:
        metrics = {metric: {"value": v, "unit": END_TO_END[metric]} for metric, v in ref.items()}

    for failure in gates.failures:
        print(f"GATE FAILED: {failure}")
    print(f"gates: {len(gates.failures)} failed of {gates.attempted} attempted")
    print(json.dumps({
        "correct": not gates.failures,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = proc.returncode
            total["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
