"""End-to-end benchmark of the listradius CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is run from ``src``
through ``PYTHONPATH``, one fresh ``python -m listradius.cli`` process per
invocation, one after another (a closed loop with one client).  The
workloads and the checks on their outputs are in ``workloads.py``.

``--trace 0`` runs the workload's invocations round after round for about
``--seconds`` and reports the ``end_to_end`` metrics of BENCHMARK.json.
While an invocation runs, this process times a fixed probe on the same CPU
every 20 ms; ``cpu_rel`` divides each invocation's CPU seconds by the
probe's mean seconds, so that a phase in which the shared machine runs
slower cancels out.  ``--trace 1`` makes one untraced pass and two traced
passes (``tracer.py``) and reports the ``per_layer`` metrics, with the
tracing overhead as traced minus untraced seconds; it checks that every
call count repeats exactly between the two traced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (commit,
versions, CPU count, seed, SHA-256 of every invocation's stdout) is written
under ``perfbench/out/``, with the spans of the first traced pass.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
SETUP_CMD = [sys.executable, "-c", "import listradius.cli"]
# The probe: about a millisecond of Python work of the kinds the package
# does, timed every PROBE_GAP_S while a child runs on the same CPU.  The
# machine is shared and each CPU runs at speeds up to 2x apart in phases of
# seconds to minutes; the probe slows with the child.  It takes ~5% of the
# CPU from the child, which the child's own CPU seconds do not count.
PROBE_GAP_S = 0.02
PROBE_DATA = [random.Random(0).random() for _ in range(600)]

SETUP_LAUNCHES_FIRST = 7
SETUP_LAUNCHES_PER_PASS = 3
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150.0
MB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Result:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int
    cpu_s: float = 0.0
    probes: tuple = ()

    @property
    def cpu_rel(self):
        """CPU seconds in units of the probe's mean seconds."""
        return self.cpu_s / statistics.mean(self.probes)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _probe():
    """Seconds of one probe: bisections on the binary entropy function, then
    sorting, summing into a dict and formatting a list of floats.  A tight
    arithmetic loop would slow about twice as much as the package does in a
    slow phase; this mix slows about as much."""
    t0 = time.perf_counter()
    for k in range(30):
        lo, hi, target = 1e-9, 0.5, 0.1 + 0.012 * k
        for _ in range(40):
            mid = (lo + hi) / 2
            if _entropy(mid) < target:
                lo = mid
            else:
                hi = mid
    for _ in range(2):
        sums = {}
        for i, x in enumerate(sorted(PROBE_DATA)):
            sums[i % 97] = sums.get(i % 97, 0.0) + x
        ",".join(f"{v:.3f}" for v in sums.values())
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Pin this process, and so every child, to one CPU, so that the probe
    and the child it runs beside share the CPU and its speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def launch(cmd, env, workdir, probe=False) -> Result:
    """Run one child to completion; its own rusage gives its peak RSS and CPU
    seconds.  With ``probe``, time the probe loop until the child ends."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        probes = []
        try:
            while True:
                if probe:
                    probes.append(_probe())
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG if probe else 0)
                if pid:
                    break
                time.sleep(PROBE_GAP_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Result(
        proc.returncode, stdout, stderr, seconds, usage.ru_maxrss,
        usage.ru_utime + usage.ru_stime, tuple(probes),
    )


class Bench:
    """One run: the workload's invocations, where children write, and every
    result with the problems found in it."""

    def __init__(self, invocations, check, workdir, launcher=launch):
        self.invocations = invocations
        self.check = check
        self.workdir = workdir
        self.launcher = launcher
        self.env = child_env()
        self.files = {}
        for inv in invocations:
            for key, text in inv.files.items():
                path = os.path.join(workdir, f"{key}.txt")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(text)
                self.files[key] = os.path.relpath(path, ROOT)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hashes = [set() for _ in invocations]
        self._checked = {}

    def _args(self, inv):
        return [a.format(**self.files) for a in inv.args]

    def launch_setup(self):
        """Seconds of one fresh interpreter that imports the CLI and exits."""
        self.attempted += 1
        res = self.launcher(SETUP_CMD, self.env, self.workdir)
        if res.returncode != 0 or res.stderr.strip():
            self.failed += 1
            self.problems.append(f"set-up launch: exit {res.returncode}: {res.stderr[:200]!r}")
        return res.seconds

    def run_one(self, i, traced_plan=None, record_prefix=None, probe=False):
        """Launch invocation ``i`` and check its output."""
        inv = self.invocations[i]
        if traced_plan is None:
            cmd = [sys.executable, "-m", "listradius.cli"]
        else:
            cmd = [sys.executable, TRACER, traced_plan, f"{record_prefix}-{i}.json", "--"]
        res = self.launcher(cmd + self._args(inv), self.env, self.workdir, probe=probe)
        self._check(i, inv, res)
        return res

    def run_pass(self, traced_plan=None, record_prefix=None):
        """One closed-loop pass; returns (seconds in invocations, results)."""
        results = [self.run_one(i, traced_plan, record_prefix) for i in range(len(self.invocations))]
        return sum(r.seconds for r in results), results

    def _check(self, i, inv, res):
        self.attempted += 1
        digest = hashlib.sha256(res.stdout).hexdigest()
        self.hashes[i].add(digest)
        key = (i, res.returncode, digest, res.stderr)
        if key not in self._checked:
            self._checked[key] = self.check(inv, res.returncode, res.stdout, res.stderr)
        if self._checked[key]:
            self.failed += 1
            self.problems.extend(f"{' '.join(inv.args)}: {p}" for p in self._checked[key])


def git_commit():
    """Commit of the checkout read from .git without running git; "unknown"
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "seed": seed,
    }


def measure_untraced(bench, deadline):
    """Invocations in workload order, round after round, until the next one
    would end after the deadline (but at least one whole pass), each run
    beside the probe, with set-up launches before the first pass and after
    each whole pass.

    ``cpu_rel`` sums, over the workload's invocations, the mean of each
    invocation's ``Result.cpu_rel``: the CPU time of one pass in probe
    units.  The pass's plain wall and CPU seconds, summed the same way, are
    printed and recorded but not reported as metrics, because they move
    with the machine's speed."""
    n = len(bench.invocations)
    setup = [bench.launch_setup() for _ in range(SETUP_LAUNCHES_FIRST)]
    results, rss = [[] for _ in range(n)], 0
    for k in itertools.count():
        i = k % n
        if k >= n and time.perf_counter() + results[i][-1].seconds > deadline:
            break
        res = bench.run_one(i, probe=True)
        results[i].append(res)
        rss = max(rss, res.maxrss_kb)
        if i == n - 1:
            setup += [bench.launch_setup() for _ in range(SETUP_LAUNCHES_PER_PASS)]

    def per_pass(stat):
        return sum(statistics.mean(stat(r) for r in rs) for rs in results)

    values = {
        "cpu_rel": per_pass(lambda r: r.cpu_rel),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss / MB,
    }
    detail = {
        "wall_s": per_pass(lambda r: r.seconds),
        "cpu_s": per_pass(lambda r: r.cpu_s),
        "probe_mean_s": statistics.mean(p for rs in results for r in rs for p in r.probes),
        "passes": k / n,
        "invocations": [
            [{"wall_s": r.seconds, "cpu_s": r.cpu_s, "cpu_rel": r.cpu_rel} for r in rs]
            for rs in results
        ],
        "setup_launch_s": setup,
    }
    return values, detail, True


def measure_traced(bench, per_layer):
    plan_path = os.path.join(bench.workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.plan_for(per_layer), fh)
    plain_wall, _ = bench.run_pass()
    walls, passes, records = [], [], []
    for k in range(TRACED_PASSES):
        prefix = os.path.join(bench.workdir, f"trace{k}")
        wall, _ = bench.run_pass(traced_plan=plan_path, record_prefix=prefix)
        recs = []
        for i in range(len(bench.invocations)):
            try:
                with open(f"{prefix}-{i}.json", encoding="utf-8") as fh:
                    recs.append(json.load(fh))
            except (OSError, ValueError) as exc:
                bench.problems.append(f"trace record of invocation {i}: {exc}")
        walls.append(wall)
        passes.append(tracer.layer_metrics(recs, per_layer))
        records.append(recs)
    counts = [{k: v for k, v in p.items() if k.endswith(".calls")} for p in passes]
    complete = all(len(recs) == len(bench.invocations) for recs in records)
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        bench.problems.append("call counts differ between traced passes with the same seed")
    values = {
        name: passes[0][name] if name.endswith(".calls") else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
    values["trace.overhead_s"] = statistics.median(walls) - plain_wall
    values["trace.untraced_wall_s"] = plain_wall
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": walls, "spans": records[0]}
    return values, detail, complete and repeat


def report(workload, seed, trace, spec_metrics, values, bench, ok, detail, env):
    failed_ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(
        f"workload {workload}  seed {seed}  trace {trace}  commit {env['commit'][:12]}  "
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}"
    )
    for m in spec_metrics:
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    if "cpu_s" in detail:
        print(f"  {'(pass wall and CPU seconds, not gated)':<48} {detail['wall_s']:>14.6g} s "
              f"{detail['cpu_s']:.6g} s (probe mean {detail['probe_mean_s']:.4g} s, "
              f"{detail['passes']:.3g} passes)")
    print(f"  {'failed_ratio':<48} {failed_ratio:>14.6g} ratio ({bench.failed}/{bench.attempted} invocations)")
    for p in bench.problems[:20]:
        print(f"  problem: {p}")
    spans = detail.pop("spans", None)
    record = dict(
        env,
        workload=workload,
        trace=trace,
        invocations=[
            {"args": list(inv.args), "stdout_sha256": sorted(h)}
            for inv, h in zip(bench.invocations, bench.hashes)
        ],
        detail=detail,
        problems=bench.problems,
        metrics=values,
    )
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT, f"spans-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "invocations": spans}, fh)
    result = {
        "correct": ok and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }
    print(json.dumps(result))
    return result


def run(workload, seed, seconds, trace, tiny=False, launcher=launch):
    """Measure one run and print its report; returns the result object."""
    start = time.perf_counter()
    pin_to_one_cpu()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        bench = Bench(workloads.build(workload, seed, tiny=tiny), workloads.check_output, workdir, launcher)
        warm = launch(SETUP_CMD, bench.env, workdir)
        if warm.returncode != 0:
            raise SystemExit(f"run.py: cannot import listradius.cli: {warm.stderr.decode(errors='replace')}")
        if trace:
            metrics = spec["per_layer"]
            values, detail, ok = measure_traced(bench, [m["name"] for m in metrics])
        else:
            metrics = spec["end_to_end"]
            values, detail, ok = measure_untraced(bench, start + seconds)
        return report(workload, seed, trace, metrics, values, bench, ok, detail, environment(seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "listradius", "cli.py")):
        print(f"run.py: no listradius sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
