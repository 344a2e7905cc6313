"""cayleykit benchmark: a closed loop with one client sending CLI requests.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It sends the workload's seeded request
blocks (see workloads.py), one whole block at a time, until ``--seconds``
have gone by, checks every outcome against the benchmark's own expectations,
and prints one JSON line last:

- ``--trace 0``: end-to-end metrics (throughput, latency p50/p90, peak RSS,
  set-up time), measured with no tracing installed;
- ``--trace 1``: per-layer metrics, from blocks run with spans recorded
  around each layer's public functions; each block also runs untraced just
  before, so the tracing overhead can be reported.

enumerate, graphs and tables call ``cayleykit.cli.main`` in this process
after importing the package and building the catalog; cli_cold starts a
fresh interpreter per request.  A human-readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
import workloads
from groups_oracle import CATALOG_MAX_ORDER

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "data" / "puzzle_oracle.json"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 120

WARM_CODE = """
import json, time
t0 = time.perf_counter()
import cayleykit, cayleykit.cli
from cayleykit import families
t1 = time.perf_counter()
for order in range(1, {max_order} + 1):
    families.nonabelian_catalog(order)
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "setup_s": t2 - t0}}))
"""

IMPORT_CODE = """
import json, time
t0 = time.perf_counter()
import cayleykit, cayleykit.cli
t1 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t1 - t0}))
"""


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


def timed_child(code: str) -> dict:
    proc = run_child([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


class InProcess:
    """Requests go to cayleykit.cli.main in this interpreter."""

    def __init__(self):
        self.cli = None
        self.recorder = spanlib.Recorder()
        self.import_s: list[float] = []

    def setup(self) -> list[dict]:
        samples = [timed_child(WARM_CODE.format(max_order=CATALOG_MAX_ORDER))
                   for _ in range(SETUP_SAMPLES - 1)]
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import cayleykit.cli
        from cayleykit import families
        t1 = time.perf_counter()
        for order in range(1, CATALOG_MAX_ORDER + 1):
            families.nonabelian_catalog(order)
        t2 = time.perf_counter()
        samples.append({"import_s": t1 - t0, "setup_s": t2 - t0})
        self.cli = cayleykit.cli
        self.import_s = [s["import_s"] for s in samples]
        return samples

    def start_block(self, traced: bool):
        if traced:
            self.recorder.install()

    def execute(self, argv, request: int, traced: bool):
        if traced:
            self.recorder.begin(request)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(list(argv))
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), elapsed

    def end_block(self, traced: bool) -> list[list]:
        if not traced:
            return []
        self.recorder.uninstall()
        return self.recorder.finish()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Cold:
    """Each request runs in a fresh interpreter, as from a shell; traced
    requests run through child.py, which records and writes the spans."""

    def __init__(self, workdir: Path):
        self.trace_file = workdir / "spans.json"
        self.spans: list[list] = []
        self.import_s: list[float] = []

    def setup(self) -> list[dict]:
        return [timed_child(IMPORT_CODE) for _ in range(2 * SETUP_SAMPLES - 1)]

    def start_block(self, traced: bool):
        self.spans = []

    def execute(self, argv, request: int, traced: bool):
        if traced:
            cmd = [sys.executable, str(CHILD), str(self.trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "cayleykit.cli", *argv]
        t0 = time.perf_counter()
        proc = run_child(cmd)
        elapsed = time.perf_counter() - t0
        if traced:
            child = json.loads(self.trace_file.read_text())
            self.trace_file.unlink()
            base = len(self.spans)
            for span in child["spans"]:
                span[3] = None if span[3] is None else span[3] + base
                span[4] = request
                self.spans.append(span)
            self.import_s.append(child["import_s"])
        return proc.returncode, proc.stdout, elapsed

    def end_block(self, traced: bool) -> list[list]:
        return self.spans

    def peak_rss_mb(self) -> float:
        # the largest child waited for; set-up children are smaller
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class BlockRun:
    """One block's requests as sent: latencies, failures, spans, wall time."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies: list[float] = []
        self.failed: list[str] = []
        self.spans: list[list] = []
        self.wall = 0.0


def run_block(runner, block, workdir: Path, traced: bool) -> BlockRun:
    workdir.mkdir()
    for name, text in block.files:
        (workdir / name).write_text(text)
    result = BlockRun(traced)
    runner.start_block(traced)
    try:
        t0 = time.perf_counter()
        for i, req in enumerate(block.requests):
            argv = [a.replace(workloads.WORK, str(workdir)) for a in req.argv]
            code, stdout, elapsed = runner.execute(argv, i, traced)
            result.latencies.append(elapsed)
            if not workloads.check(req.expect, code, stdout):
                result.failed.append(f"{req.kind}: {' '.join(req.argv)[:120]} (exit {code})")
        result.wall = time.perf_counter() - t0
    finally:
        result.spans = runner.end_block(traced)
    return result


def run_blocks(runner, make_block, workdir: Path, seconds: float, trace: bool):
    """Blocks 0, 1, ... until the time is spent (a block that would mostly run
    past the end is not started).  With ``trace`` each block runs twice,
    untraced and then traced, so the overhead is measured on equal inputs."""
    runs: list[BlockRun] = []
    start = time.perf_counter()
    while True:
        n = len(runs)
        index, traced = (n // 2, n % 2 == 1) if trace else (n, False)
        runs.append(run_block(runner, make_block(index), workdir / f"r{n}", traced))
        elapsed = time.perf_counter() - start
        if len(runs) >= (2 if trace else 1) and elapsed * (1 + 0.5 / len(runs)) >= seconds:
            return runs


def throughput(runs: list[BlockRun]) -> float:
    ok = sum(len(r.latencies) - len(r.failed) for r in runs)
    return ok / sum(r.wall for r in runs)


def end_to_end(runs, setup, runner) -> dict:
    lat = [x * 1000 for r in runs for x in r.latencies]
    deciles = statistics.quantiles(lat, n=10)
    return {
        "throughput_rps": (throughput(runs), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (runner.peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
    }


def per_layer(runs, runner) -> dict:
    """Self times per traced block (mean over traced blocks); exact counts of
    the first traced block, which one seed always repeats."""
    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    times: dict[str, float] = {}
    for r in traced:
        for k, v in spanlib.layer_times(r.spans).items():
            times[k] = times.get(k, 0.0) + v / len(traced)
    counts = spanlib.layer_counts(traced[0].spans)
    metrics = {name: (times.get(name, 0.0), "s") for name in spanlib.TIME_METRICS}
    metrics["cli.import_s"] = (statistics.median(runner.import_s), "s")
    for name in spanlib.COUNT_METRICS:
        metrics[name] = (counts[name], "count")
    calls = counts["groups.iso_calls"]
    metrics["groups.iso_hit_ratio"] = (counts["groups.iso_hits"] / calls if calls else 0.0,
                                       "ratio")
    metrics["trace.throughput_ratio"] = (throughput(traced) / throughput(plain), "ratio")
    return metrics


def write_spans(path: Path, runs: list[BlockRun]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for n, r in enumerate(runs):
            for i, (name, start, end, parent, request, info) in enumerate(r.spans):
                handle.write(json.dumps({
                    "block": n, "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "info": info,
                }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cayleykit" / "cli.py").is_file() or not ORACLE.is_file():
        print(f"perfbench: no cayleykit checkout at {ROOT} "
              "(need src/cayleykit and tests/data/puzzle_oracle.json)", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # fixture paths in requests are relative to the checkout
    oracle = json.loads(ORACLE.read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)

    def make_block(index):
        return workloads.block(args.workload, args.seed, index, oracle)

    try:
        runner = Cold(workdir) if args.workload == "cli_cold" else InProcess()
        setup = runner.setup()
        runs = run_blocks(runner, make_block, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(len(r.failed) for r in runs)
    if args.trace:
        metrics = per_layer(runs, runner)
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", runs)
    else:
        metrics = end_to_end(runs, setup, runner)

    report = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} blocks, "
          f"{attempted} requests attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.4f}", file=report)
    for r in runs:
        for line in r.failed:
            print(f"  FAILED {line}", file=report)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=report)
    if not args.trace:
        print(f"  latency samples = {attempted}", file=report)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
