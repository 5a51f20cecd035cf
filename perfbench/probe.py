"""Span recorder and the per-module probe of the traced run.

Spans are recorded from the benchmark's side only: ``Tracer.wrap`` swaps a
module attribute for a wrapper that opens a span around each call, so a
call the CLI makes into ``brun.sieve.census`` shows up as a child of the
``cli.census`` span without any change to the package.  Spans live in
memory and are written out once, at the end of the run.

The probe calls each module's public functions at the workload sizes and
turns the spans and counters into the per-layer metrics.  A span's layer
is the part of its name before the first dot; a layer's self time is the
time its spans spent outside their child spans.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
import synth_tables

# the modules under src/brun the probe reports on; cli is measured on
# the workload's own pass
LAYERS = ("sieve", "tables", "interval", "rv_bound", "euler_product", "divisor_error")


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans = []
        self.calls = Counter()
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter() - self.t0
            self._open.pop()

    def wrap(self, module, attr: str, stack: ExitStack) -> None:
        """Route calls through ``module.attr`` into spans until ``stack`` closes.

        The span is named after the module that defines the function, so a
        sieve function called from euler_product counts as sieve time.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"

        def traced(*args, **kwargs):
            self.calls[name] += 1
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        stack.callback(setattr, module, attr, original)

    def self_times(self, spans=None) -> dict:
        spans = self.spans if spans is None else spans
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = Counter()
        for s in spans:
            out[s["name"].split(".", 1)[0]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)


@contextmanager
def traced_cli(tracer: Tracer):
    """Spans around every library call the CLI and the workloads make."""
    import brun.cli
    import brun.euler_product
    import brun.rv_bound
    import brun.tables

    with ExitStack() as stack:
        for attr in (
            "census",
            "scan_c",
            "h_bound",
            "load_table_dir",
            "extend_partial_sum",
            "derive_params",
            "brun_upper",
        ):
            tracer.wrap(brun.cli, attr, stack)
        tracer.wrap(brun.tables, "parse_table", stack)
        tracer.wrap(brun.rv_bound, "integrate_adaptive", stack)
        tracer.wrap(brun.euler_product, "prime_count", stack)
        tracer.wrap(brun.euler_product, "twin_constant", stack)
        yield


def span_cost_ns(reps: int = 20000) -> float:
    """Cost of opening and closing one empty span, in nanoseconds."""
    tracer = Tracer()
    t0 = perf_counter()
    for _ in range(reps):
        with tracer.span("trace.empty"):
            pass
    return (perf_counter() - t0) / reps * 1e9


class _Probe:
    def __init__(self, tracer: Tracer, threads: int):
        self.tracer = tracer
        self.threads = threads
        self.metrics = {}
        self.attempted = 0
        self.problems = []

    def timed(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        with self.tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        return result, rec["end"] - rec["start"]

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"probe {what}: got {got}, expected {want}")

    def sieve(self) -> None:
        from brun import sieve

        m = self.metrics
        n = 10**9
        primes_1e8, m["sieve.prime_count_1e8_s"] = self.timed("sieve.prime_count", sieve.prime_count, 10**8)
        primes, m["sieve.prime_count_1e9_s"] = self.timed("sieve.prime_count", sieve.prime_count, n)
        members, m["sieve.twin_members_s"] = self.timed("sieve.twin_lower_members", sieve.twin_lower_members, n)
        serial, m["sieve.census_lib_s"] = self.timed("sieve.census", sieve.census, n)
        par, par_s = self.timed("sieve.census", sieve.census, n, threads=self.threads)
        self.expect("pi(1e8)", primes_1e8, oracles.PI_1E8)
        self.expect("pi2(1e9) from twin_lower_members", len(members), oracles.PI2_1E9)
        self.expect("census(1e9).pi2", serial.pi2, oracles.PI2_1E9)
        self.expect("threaded census", (par.pi2, par.brun_partial), (serial.pi2, serial.brun_partial))
        # derived, not measured: census minus the sieve work it shares
        # with twin_lower_members is the accumulation
        m["sieve.accumulate_s"] = m["sieve.census_lib_s"] - m["sieve.twin_members_s"]
        m["sieve.thread_speedup"] = m["sieve.census_lib_s"] / par_s
        m["sieve.integers_per_s"] = n / m["sieve.census_lib_s"]
        # derived from the default segment size: census segments start at 3
        m["sieve.segments"] = math.ceil((n - 2) / sieve.DEFAULT_SEGMENT_SIZE)
        m["sieve.pairs"] = serial.pi2
        m["sieve.primes"] = primes
        m["sieve.census_width"] = serial.brun_partial.width

    def tables(self, table_dir: Path, seed: int) -> None:
        import brun.tables as tables

        m = self.metrics
        layout = synth_tables.write_tables(table_dir, seed)
        files = sorted(table_dir.glob("*.txt"))
        texts = [f.read_text() for f in files]
        m["tables.parse_s"] = sum(self.timed("tables.parse_table", tables.parse_table, t)[1] for t in texts)
        before = self.tracer.calls["tables.parse_table"]
        with ExitStack() as stack:
            self.tracer.wrap(tables, "parse_table", stack)
            entries, m["tables.load_s"] = self.timed("tables.load_table_dir", tables.load_table_dir, table_dir)
        parse_calls = self.tracer.calls["tables.parse_table"] - before
        chained, m["tables.extend_s"] = self.timed(
            "tables.extend_partial_sum",
            tables.extend_partial_sum,
            tables.DEFAULT_BASE_THRESHOLD,
            tables.DEFAULT_BASE_ENCLOSURE,
            entries,
        )
        self.expect("merged rows", len(entries), layout["rows"])
        self.expect("chained pi2(4e18)", chained.pi2, oracles.PI2_4E18)
        m["tables.rows"] = len(entries)
        m["tables.files"] = len(files)
        m["tables.bytes"] = sum(len(t.encode()) for t in texts)
        m["tables.parse_calls_per_file"] = parse_calls / len(files)
        m["tables.chain_width"] = chained.brun_partial.width

    def interval(self, reps: int = 20000) -> None:
        from brun import Interval

        a = Interval(1.25, 1.5)
        b = Interval(2.0, 2.5)
        ops = {
            "add": lambda: a + b,
            "mul": lambda: a * b,
            "div": lambda: a / b,
            "log": a.log,
            "exp": a.exp,
        }
        for name, op in ops.items():
            def loop(op=op):
                for _ in range(reps):
                    op()

            self.metrics[f"interval.{name}_ns"] = self.timed(f"interval.{name}", loop)[1] / reps * 1e9

    def rv_bound(self) -> None:
        from brun import Interval, rv_bound

        m = self.metrics
        x0 = 4 * 10**18
        params_runs = [self.timed("rv_bound.derive_params", rv_bound.derive_params) for _ in range(5)]
        params = params_runs[0][0]
        m["rv_bound.params_s"] = statistics.median(s for _, s in params_runs)

        inner = rv_bound.correction_piece(params)
        piece_time = [0, 0.0]

        def piece(a, b):
            t = perf_counter()
            try:
                return inner(a, b)
            finally:
                piece_time[0] += 1
                piece_time[1] += perf_counter() - t

        # the arguments brun_upper passes at its defaults
        u0 = Interval.from_int(x0).log().lo
        quad, m["rv_bound.quad_s"] = self.timed(
            "rv_bound.integrate_adaptive", rv_bound.integrate_adaptive, piece, u0, 20000.0, 1e-6
        )
        m["rv_bound.piece_calls"] = piece_time[0]
        m["rv_bound.piece_s"] = piece_time[1]
        m["rv_bound.bisect_s"] = m["rv_bound.quad_s"] - piece_time[1]
        m["rv_bound.quad_pieces"] = quad.pieces
        m["rv_bound.achieved_width"] = quad.achieved_width

        partial = Interval(1.840503, 1.840518)
        with ExitStack() as stack:
            self.tracer.wrap(rv_bound, "integrate_adaptive", stack)
            cert, m["rv_bound.brun_upper_s"] = self.timed(
                "rv_bound.brun_upper", rv_bound.brun_upper, x0, oracles.PI2_4E18, partial, params=params
            )
        self.expect("brun_upper pieces", cert.quad_pieces, quad.pieces)
        m["rv_bound.certify_upper"] = cert.upper

    def euler_product(self) -> None:
        from brun import euler_product

        m = self.metrics
        before = self.tracer.calls["sieve.prime_count"]
        with ExitStack() as stack:
            self.tracer.wrap(euler_product, "prime_count", stack)
            report, m["euler_product.h_bound_s"] = self.timed(
                "euler_product.h_bound", euler_product.h_bound, 10**8, Fraction(2, 5)
            )
            twin_c, m["euler_product.twin_c_s"] = self.timed(
                "euler_product.twin_constant", euler_product.twin_constant, 10**8
            )
        self.expect("h_bound pi_cutoff", report.pi_cutoff, oracles.PI_1E8)
        self.problems += oracles.check_twin_constant(twin_c)[0]
        m["euler_product.prime_count_calls"] = self.tracer.calls["sieve.prime_count"] - before
        m["euler_product.pi_cutoff"] = report.pi_cutoff
        m["euler_product.h_log_width"] = report.log_bound.width
        m["euler_product.twin_c_width"] = twin_c.width

    def divisor_error(self) -> None:
        from brun import divisor_error

        m = self.metrics
        _, m["divisor_error.divisor_sum_s"] = self.timed(
            "divisor_error.divisor_sum", divisor_error.divisor_sum, 10**6
        )
        scan, m["divisor_error.scan_s"] = self.timed(
            "divisor_error.scan_c", divisor_error.scan_c, Fraction(2, 5), 10**6
        )
        m["divisor_error.scan_width"] = scan.bound.width
        m["divisor_error.scan_c_upper"] = scan.bound.hi


def run_probe(tracer: Tracer, work: Path, seed: int, threads: int) -> tuple:
    """Every layer's metrics, plus (attempted, problems) for the checks."""
    probe = _Probe(tracer, threads)
    first = len(tracer.spans)
    probe.sieve()
    probe.tables(work / "probe-tables", seed)
    probe.interval()
    probe.rv_bound()
    probe.euler_product()
    probe.divisor_error()
    self_times = tracer.self_times(tracer.spans[first:])
    for layer in LAYERS:
        probe.metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    return probe.metrics, probe.attempted, probe.problems
