"""brun benchmark: three certifier workloads, closed loop, one process.

    python3 perfbench/run.py --workload census-1e9 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One caller runs each operation to completion before starting
the next, through ``brun.cli.main`` in-process and the public library,
with at most min(2, nproc) threads.  Every operation is checked against
an oracle (see ``oracles.py``); a miss, an exception, a nonzero exit, or
an artifact or width that differs between repeats counts as a failed
operation.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once traced, then the
per-module probe (``probe.py``), and reports the per-layer metrics; its
spans go to a separate file.  The last line of standard output is the
result object; the lines before it name each measurement.  Full results,
with a machine block, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracles
import synth_tables
from probe import Tracer, run_probe, span_cost_ns, traced_cli

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 3


@dataclass
class Op:
    name: str
    seconds: float = 0.0
    artifact: bytes = b""
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    payload: object = None


class Run:
    """State shared by one benchmark run: paths, seed, thread count, tracer."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.threads = max(1, min(2, len(os.sched_getaffinity(0))))
        self.tracer = None
        self.table_dir = work / "tables"
        self.table_layout = None
        self.chain_ref = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def cli(self, args: list, out_flag: str, artifact: str) -> tuple:
        """`brun <args> <out_flag> <work/artifact>` in-process; (bytes, text)."""
        import brun.cli

        path = self.work / artifact
        path.unlink(missing_ok=True)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink), self.span(f"cli.{args[0]}"):
            code = brun.cli.main([*args, out_flag, str(path)])
        if code != 0:
            raise RuntimeError(f"brun {args[0]} exited {code}: {sink.getvalue().strip()[-300:]}")
        data = path.read_bytes()
        return data, data.decode()


# ---------------------------------------------------------------------
# workloads: set-up, the operations of one pass, and which operations
# make up op1_s and op2_s


def _census_ops(run: Run) -> list:
    def census(threads):
        return lambda: run.cli(
            ["census", "--limit", "1000000000", "--threads", str(threads)], "--json", f"census-t{threads}.json"
        )

    def check(text):
        problems, width = oracles.check_census_artifact(text)
        return problems, {"census_width": width}

    return [("census_s", census(1), check), ("census_par_s", census(run.threads), check)]


def _census_setup(run: Run) -> None:
    for threads in sorted({1, run.threads}):
        run.cli(["census", "--limit", "10000000", "--threads", str(threads)], "--json", "warm.json")


def _certify_ops(run: Run) -> list:
    tables = lambda: run.cli(  # noqa: E731
        ["certify", "--x0", "4e18", "--tables", str(run.table_dir)], "--out", "cert-tables.json"
    )
    numeric = lambda: run.cli(  # noqa: E731
        ["certify", "--x0", "4e18", "--pi2", str(oracles.PI2_4E18), "--brun-lo", "1.840503", "--brun-hi", "1.840518"],
        "--out",
        "cert-numeric.json",
    )
    return [
        ("certify_s", tables, lambda text: oracles.check_certify_tables(text, run.chain_ref)),
        ("certify_num_s", numeric, oracles.check_certify_numeric),
    ]


def _certify_setup(run: Run) -> None:
    run.table_layout = synth_tables.write_tables(run.table_dir, run.seed)
    run.cli(
        ["certify", "--x0", "4e18", "--pi2", str(oracles.PI2_4E18), "--brun-lo", "1.840503",
         "--brun-hi", "1.840518", "--width-target", "1e-3"],
        "--out",
        "warm.json",
    )


def _certify_prepare(run: Run) -> None:
    run.chain_ref = oracles.chain_reference(synth_tables.rows())


def _constants_ops(run: Run) -> list:
    def twin():
        from brun import euler_product

        iv = euler_product.twin_constant(10**8)
        return f"{iv.lo.hex()} {iv.hi.hex()}".encode(), iv

    return [
        ("scan_c_s", lambda: run.cli(["scan-c", "--alpha", "2/5", "--xmax", "1000000"], "--json", "scan.json"),
         oracles.check_scan),
        ("h_bound_s", lambda: run.cli(["h-bound", "--cutoff", "100000000", "--alpha", "2/5"], "--json", "h.json"),
         oracles.check_h_bound),
        ("twin_c_s", twin, oracles.check_twin_constant),
    ]


def _constants_setup(run: Run) -> None:
    run.cli(["scan-c", "--alpha", "2/5", "--xmax", "10000"], "--json", "warm.json")
    run.cli(["h-bound", "--cutoff", "100000", "--alpha", "2/5"], "--json", "warm.json")


def _census_final(run: Run) -> Op:
    from brun import census

    op = Op("census_1e6_exact")
    op.problems = oracles.check_small_census(census(10**6))
    return op


WORKLOADS = {
    "census-1e9": {
        "ops": _census_ops,
        "setup": _census_setup,
        "op1": ("census_s",),
        "op2": ("census_par_s",),
        "same_artifact": ("census_s", "census_par_s"),
        "final": _census_final,
    },
    "certify-tables": {
        "ops": _certify_ops,
        "setup": _certify_setup,
        "prepare": _certify_prepare,
        "op1": ("certify_s",),
        "op2": ("certify_num_s",),
    },
    "constants": {
        "ops": _constants_ops,
        "setup": _constants_setup,
        "op1": ("scan_c_s",),
        "op2": ("h_bound_s", "twin_c_s"),
    },
}


# ---------------------------------------------------------------------
# running and checking


def run_pass(run: Run, spec: dict) -> tuple:
    """One closed-loop pass: time every operation, then check the outputs."""
    specs = spec["ops"](run)
    ops = []
    start = perf_counter()
    for name, thunk, _ in specs:
        op = Op(name)
        t0 = perf_counter()
        try:
            op.artifact, op.payload = thunk()
        except Exception as exc:  # a failing operation is a result, not a crash
            op.problems.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        op.seconds = perf_counter() - t0
        ops.append(op)
    wall = perf_counter() - start
    for op, (_, _, check) in zip(ops, specs):
        if op.problems:
            continue
        try:
            op.problems, op.values = check(op.payload)
        except (KeyError, ValueError, TypeError) as exc:
            op.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return wall, ops


def check_repeats(passes: list, spec: dict) -> None:
    """Artifacts and widths repeat exactly across passes and thread counts."""
    first = {op.name: op for op in passes[0][1]}
    for _, ops in passes:
        for op in ops:
            ref = first[op.name]
            if op.artifact != ref.artifact:
                op.problems.append(f"{op.name} artifact differs from the first pass")
            if op.values != ref.values:
                op.problems.append(f"{op.name} widths differ from the first pass: {op.values} vs {ref.values}")
        same = [op for op in ops if op.name in spec.get("same_artifact", ())]
        if any(op.artifact != same[0].artifact for op in same):
            for op in same[1:]:
                op.problems.append(f"{op.name} artifact differs across thread counts")


def machine_block() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": None,
        "caches": {},
        "git_commit": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        info["git_commit"] = ref
    except OSError:
        pass  # a source checkout without git metadata
    return info


def median_of(passes: list, names: tuple) -> float:
    return statistics.median(sum(op.seconds for op in ops if op.name in names) for _, ops in passes)


def measure(run: Run, spec: dict, seconds: float, import_s: float) -> tuple:
    """Set up three times, then closed-loop passes for ``seconds``."""
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        spec["setup"](run)
        setups.append(perf_counter() - t0)
    if "prepare" in spec:
        spec["prepare"](run)

    # start another pass only while it is expected to end within the
    # budget, so a slow machine gets fewer passes rather than a longer run
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(run, spec))
        typical = statistics.median(wall for wall, _ in passes)
        if perf_counter() - start + typical > seconds:
            break
    check_repeats(passes, spec)
    ops = [op for _, pass_ops in passes for op in pass_ops]
    if "final" in spec:
        ops.append(spec["final"](run))

    names = [op.name for op in passes[0][1]]
    detail = {name: statistics.median(op.seconds for op in ops if op.name == name) for name in names}
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(wall for wall, _ in passes),
        "op1_s": median_of(passes, spec["op1"]),
        "op2_s": median_of(passes, spec["op2"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for op in passes[0][1]:
        detail.update(op.values)
    detail["passes"] = len(passes)
    detail["setup_reps_s"] = setups
    detail["pass_walls_s"] = [wall for wall, _ in passes]
    detail["pass_ops_s"] = {name: [op.seconds for _, ops in passes for op in ops if op.name == name] for name in names}
    return metrics, detail, ops


def trace(run: Run, spec: dict) -> tuple:
    """One untraced and one traced pass, then the per-module probe."""
    spec["setup"](run)
    if "prepare" in spec:
        spec["prepare"](run)
    untraced_wall, untraced = run_pass(run, spec)
    run.tracer = tracer = Tracer()
    with traced_cli(tracer):
        traced_wall, traced = run_pass(run, spec)
    pass_spans = list(tracer.spans)
    run.tracer = None
    check_repeats([(untraced_wall, untraced), (traced_wall, traced)], spec)

    metrics, attempted, problems = run_probe(tracer, run.work, run.seed, run.threads)
    probe_op = Op("probe", problems=problems)
    metrics["cli.emit_s"] = tracer.self_times(pass_spans).get("cli", 0.0)
    metrics["cli.artifact_bytes"] = sum(len(op.artifact) for op in traced if op.name != "twin_c_s")
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.span_ns"] = span_cost_ns()
    spans_file = OUT / f"{run.workload}-seed{run.seed}.trace.json"
    spans_file.write_text(
        json.dumps(
            {
                "workload": run.workload,
                "seed": run.seed,
                "self_s_workload_pass": tracer.self_times(pass_spans),
                "self_s_probe": tracer.self_times(tracer.spans[len(pass_spans):]),
                "spans": tracer.spans,
            },
            indent=1,
        )
    )
    ops = untraced + traced + [probe_op]
    # the probe's own calls count as attempted operations; its problems
    # fail the one probe record
    extra_attempts = attempted - 1
    detail = {"trace_file": str(spans_file.relative_to(ROOT)), "untraced_wall_s": untraced_wall,
              "traced_wall_s": traced_wall}
    return metrics, detail, ops, extra_attempts


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "brun" / "__init__.py").is_file():
        print(f"perfbench: no brun sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import brun.cli  # noqa: F401  (the import is part of set-up time)

    import_s = perf_counter() - t0

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    spec = WORKLOADS[args.workload]
    run = Run(args.workload, args.seed, work)
    extra_attempts = 0
    try:
        if args.trace:
            metrics, detail, ops, extra_attempts = trace(run, spec)
        else:
            metrics, detail, ops = measure(run, spec, args.seconds, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed = [op for op in ops if op.problems]
    attempted = len(ops) + extra_attempts
    for op in failed:
        for problem in op.problems:
            print(f"FAIL {op.name}: {problem}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": run.threads,
        "machine": machine_block(),
        "tables": run.table_layout,
        "fail_ratio": len(failed) / attempted,
        "problems": {op.name: op.problems for op in failed},
        "detail": detail,
        "result": result,
    }
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in {**detail, **metrics}.items():
        if isinstance(value, (int, float)):
            print(f"{name:34s} {value:.6g} {units.get(name, 's' if name.endswith('_s') else '')}")
    print(f"{'fail_ratio':34s} {record['fail_ratio']:.6g} ({len(failed)} of {attempted})")
    print(f"record: {record_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
