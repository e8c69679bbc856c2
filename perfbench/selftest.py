"""Self-test of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric of BENCHMARK.json is printed with its name and unit and that
the outputs pass.  Then it runs each workload again with one output
deliberately corrupted and checks that the corruption is counted as a
failed invocation.  Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

SEED = 0


def _shift_first_tau(delta):
    """Corruption that adds ``delta`` to the tau of the first row of a curve."""

    def corrupt(stdout: bytes) -> bytes:
        header, row, *rest = stdout.decode().split("\n")
        fields = row.split(",")
        fields[1] = repr(float(fields[1]) + delta)
        return "\n".join([header, ",".join(fields), *rest]).encode()

    return corrupt


def _fail_first_check(stdout: bytes) -> bytes:
    return stdout.replace(b"[PASS]", b"[FAIL]", 1)


# workload -> (the argument that picks the invocation to corrupt, corruption)
CORRUPTIONS = {
    "sweep-central": ("theorem1", _shift_first_tau(1e-6)),
    "sweep-lp": ("lp2", _shift_first_tau(0.01)),
    "verify": ("verify", _fail_first_check),
}


def corrupting_launcher(marker, corrupt):
    def launcher(cmd, env, workdir, probe=False):
        res = run.launch(cmd, env, workdir, probe=probe)
        if marker in cmd:
            res.stdout = corrupt(res.stdout)
        return res

    return launcher


def measure(workload, trace, launcher=run.launch):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        result = run.run(workload, SEED, seconds=1, trace=trace, tiny=True, launcher=launcher)
    return result, text.getvalue()


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok, what):
        print(f"[{'ok' if ok else 'FAILED'}] {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = measure(workload, trace)
            last = json.loads(text.strip().splitlines()[-1])
            expect(last == json.loads(json.dumps(result)), f"{workload} trace {trace}: last line is the result")
            expect(result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: all outputs valid")
            missing = [
                m["name"]
                for m in spec[key]
                if last["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                or f" {m['name']} " not in text
            ]
            expect(not missing and len(last["metrics"]) == len(spec[key]),
                   f"{workload} trace {trace}: every {key} metric printed with its unit {missing}")
            if trace:
                calls = {k: v["value"] for k, v in last["metrics"].items()}
                if workload == "sweep-central":
                    expect(calls["lp.r_lp2.calls"] == 0, "sweep-central makes no r_lp2 calls")
                if workload == "sweep-lp":
                    expect(calls["bounds.list_radius_bound.calls"] == 0, "sweep-lp makes no list_radius_bound calls")
                if workload != "verify":
                    expect(calls["bounds.crossover_rate.repeat_ratio"] == 0, f"{workload}: no repeated crossover_rate")

        marker, corrupt = CORRUPTIONS[workload]
        result, _ = measure(workload, 0, corrupting_launcher(marker, corrupt))
        expect(result["failed"] >= 1 and not result["correct"],
               f"{workload}: a corrupted output is counted as failed ({result['failed']}/{result['attempted']})")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    sys.exit(main())
