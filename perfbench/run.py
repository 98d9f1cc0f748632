"""mobiuslab benchmark: seeded spec files driven through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is sarnak_seq, kbsz_dilated or digit_spectral (see workloads.py).  A
run first replays tests/fixtures/golden/ through the CLI and the oracle and
refuses to report numbers (exit 1) if either disagrees.  It then computes
the workload's reference outputs with the oracle, untimed, and repeats timed
passes until S seconds have gone; a pass makes every CLI call of the
workload once, each in its own process, followed by set-up probes.  A call
fails when it exits nonzero or writes a report that disagrees with the
oracle or with the first bytes written under that name in the run.  For
kbsz_dilated an untimed `--workers 1` pass writes those first bytes, so the
timed `--workers 2` passes also check worker-count independence.

The last line of standard output is one JSON object.  With --trace 0 its
metrics are the end-to-end ones:

  setup_s      process start to the first run-phase call, median over calls
               and probes
  run_s        first run-phase call to the CLI's return, summed over a pass,
               median over passes
  peak_rss_mb  peak RSS of a call's own process, max over a pass, median
               over passes

With --trace 1 an untimed tracemalloc pass gives the per-span memory peaks,
then untraced and traced passes alternate; the metrics are the per-layer
ones (self times of the spans child.py records, counters, peaks) plus the
tracing overhead.  `all` runs every workload both ways and prints a table.
See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
MIB = float(1 << 20)
# set-up-only runs after each timed pass: interpreter start and numpy import
# vary by tens of percent from one process to the next
PROBES_PER_PASS = 2

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "specfile.parse_s": "s",
    "cli.bind_s": "s",
    "permgrp.closure_s": "s",
    "permgrp.group_order": "count",
    "arith.weight_table_s": "s",
    "arith.weight_table_calls": "count",
    "arith.weight_table_peak_mb": "MiB",
    "streams.build_s.subst": "s",
    "streams.build_s.morse": "s",
    "streams.build_s.rs": "s",
    "streams.build_s.veech": "s",
    "streams.symbols_built": "count",
    "streams.positions_read": "count",
    "streams.read_ratio": "ratio",
    "spectral.evaluate_s": "s",
    "spectral.evaluate_at_s": "s",
    "spectral.evaluate_at_peak_mb": "MiB",
    "spectral.autocorrelation_s": "s",
    "spectral.periodogram_s": "s",
    "experiment.reduce_s": "s",
    "experiment.report_s": "s",
    "experiment.report_bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
# span name recorded by child.py -> per-layer self-time metric
SPAN_METRIC = {
    "specfile.parse": "specfile.parse_s",
    "cli.bind": "cli.bind_s",
    "permgrp.closure": "permgrp.closure_s",
    "arith.weight_table": "arith.weight_table_s",
    "streams.build.subst": "streams.build_s.subst",
    "streams.build.morse": "streams.build_s.morse",
    "streams.build.rs": "streams.build_s.rs",
    "streams.build.veech": "streams.build_s.veech",
    "spectral.evaluate": "spectral.evaluate_s",
    "spectral.evaluate_at": "spectral.evaluate_at_s",
    "spectral.autocorrelation": "spectral.autocorrelation_s",
    "spectral.periodogram": "spectral.periodogram_s",
    "experiment.reduce": "experiment.reduce_s",
    "experiment.report": "experiment.report_s",
}


class SetupError(Exception):
    """The benchmark cannot vouch for its numbers; nothing is reported."""


@dataclass
class Call:
    code: int
    setup_s: float = 0.0
    run_s: float = 0.0
    peak_mib: float = 0.0
    sidecar: dict = field(default_factory=dict)
    stderr: str = ""


def run_call(args, mode: str = "plain") -> Call:
    """Run child.py in `mode` with the CLI arguments in its own process and time it."""
    sidecar_path, err_path = WORK / "sidecar.json", WORK / "stderr.txt"
    sidecar_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar_path), mode, *args]
    with open(WORK / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=WORK, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not sidecar_path.exists():
        return Call(proc.returncode or -1, stderr=err_path.read_text(errors="replace")[-2000:])
    side = json.loads(sidecar_path.read_text())
    setup_end = side["setup_end"] if side["setup_end"] is not None else side["end"]
    peak_kib = side["peak_rss_kib"] if side["peak_rss_kib"] is not None else usage.ru_maxrss
    return Call(0, setup_end - start, side["end"] - setup_end, peak_kib / 1024.0, side)


@dataclass
class Pass:
    calls: list
    failures: list  # one message per failed call
    outputs: dict  # report file name -> bytes

    @property
    def returned(self):
        """Every call exited 0, so its timing is valid even if a report was wrong."""
        return all(c.code == 0 for c in self.calls)

    @property
    def setups(self):
        return [c.setup_s for c in self.calls]

    @property
    def run_s(self):
        return sum(c.run_s for c in self.calls)

    @property
    def peak_mib(self):
        return max(c.peak_mib for c in self.calls)


def _cli_args(inv, spec_path: Path, out: Path, workers: int):
    return [a.format(spec=spec_path, out=out, workers=workers) for a in inv.args]


def run_pass(wl, spec_path: Path, workers: int, reference, pinned: dict, mode: str = "plain") -> Pass:
    """Every CLI call of the workload once, each output checked.

    Outputs are compared with the oracle and with the bytes of the first run
    that wrote them, which are pinned on the way.
    """
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    calls, failures, outputs = [], [], {}
    for inv in wl.invocations:
        call = run_call(_cli_args(inv, spec_path, out, workers), mode)
        calls.append(call)
        problems = []
        if call.code != 0:
            problems.append("exit %d: %s" % (call.code, call.stderr.strip()))
        for name in inv.outputs:
            path = out / name
            if not path.exists():
                problems.append("%s: not written" % name)
                continue
            data = outputs[name] = path.read_bytes()
            problem = reference.check(name, data)
            if problem is None and pinned.setdefault(name, data) != data:
                problem = "%s: bytes differ from the first run" % name
            if problem:
                problems.append(problem)
        if problems:
            failures.append("%s: %s" % (inv.args[0], "; ".join(problems)))
    return Pass(calls, failures, outputs)


def check_golden():
    """Replay the frozen fixtures through the oracle and the CLI; raise SetupError on any mismatch."""
    try:
        csv_golden = (GOLDEN / "sarnak_tm_moebius_pow2.csv").read_bytes()
        sarnak_golden = json.loads((GOLDEN / "sarnak_tm_moebius.json").read_text())["value"]
        kbsz_golden = json.loads((GOLDEN / "kbsz_tm_3_5.json").read_text())["value"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError("cannot read the golden fixtures: %s" % exc) from None
    csv_oracle, kbsz_oracle = oracle.golden_outputs()
    if csv_oracle != csv_golden or kbsz_oracle != kbsz_golden:
        raise SetupError("the oracle disagrees with tests/fixtures/golden/")
    spec, out = WORK / "golden.spec", WORK / "golden"
    spec.write_text(workloads.golden_spec(), encoding="ascii")
    call = run_call(["run", str(spec), "--out", str(out), "--workers", "1"])
    if call.code != 0:
        raise SetupError("golden replay failed (exit %d): %s" % (call.code, call.stderr.strip()))
    try:
        csv_cli = (out / "sarnak_tm_moebius.csv").read_bytes()
        sarnak_cli = json.loads((out / "sarnak_tm_moebius.json").read_text())["rows"][-1]["real"]
        kbsz_cli = json.loads((out / "kbsz_tm_3_5.json").read_text())["rows"][-1]["real"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise SetupError("golden replay wrote unreadable reports: %s" % exc) from None
    if csv_cli != csv_golden or sarnak_cli != sarnak_golden or kbsz_cli != kbsz_golden:
        raise SetupError("the CLI disagrees with tests/fixtures/golden/")


def self_times(call: Call):
    """Per-span self time (duration minus direct children), and whether it is run phase."""
    spans = call.sidecar["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    setup_end = call.sidecar["setup_end"]
    for i, (name, start, end, _, peak) in enumerate(spans):
        yield name, end - start - children[i], peak, setup_end is not None and start >= setup_end


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its calls."""
    m = {name: 0.0 for name in PER_LAYER}
    peak = defaultdict(int)
    accounted = 0.0
    for call in p.calls:
        for name, own, span_peak, in_run in self_times(call):
            if name in SPAN_METRIC:
                m[SPAN_METRIC[name]] += own
            peak[name] = max(peak[name], span_peak)
            if name == "arith.weight_table":
                m["arith.weight_table_calls"] += 1
            if in_run:
                accounted += own
        counters = call.sidecar["counters"]
        m["permgrp.group_order"] = max(m["permgrp.group_order"], counters["group_order"])
        m["streams.symbols_built"] += counters["symbols_built"]
        m["streams.positions_read"] += counters["positions_read"]
    built = m["streams.symbols_built"]
    m["streams.read_ratio"] = m["streams.positions_read"] / built if built else 0.0
    m["arith.weight_table_peak_mb"] = peak["arith.weight_table"] / MIB
    m["spectral.evaluate_at_peak_mb"] = peak["spectral.evaluate_at"] / MIB
    m["experiment.report_bytes"] = sum(len(data) for data in p.outputs.values())
    m["trace.run_s"] = p.run_s
    m["trace.unaccounted_s"] = p.run_s - accounted
    return m


def machine_facts() -> str:
    import numpy

    l3 = "?"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return "nproc=%d L3=%s python=%s numpy=%s" % (os.cpu_count() or 0, l3, platform.python_version(), numpy.__version__)


def measure(name: str, seed: int, seconds: float, trace: bool, log2_n: int = workloads.LOG2_N,
            log2_n_spectral: int = workloads.LOG2_N_SPECTRAL) -> dict:
    """One benchmark run: the contract's result object, or SetupError."""
    wl = workloads.generate(name, seed, log2_n, log2_n_spectral)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_golden()
        reference = oracle.Reference(wl)
        spec_path = WORK / (name + ".spec")
        spec_path.write_text(wl.spec_text, encoding="ascii")
        pinned, first, plain, traced, probes = {}, [], [], [], []
        if trace:
            # untimed tracemalloc pass for the per-span memory peaks
            first.append(run_pass(wl, spec_path, 1, reference, pinned, mode="memory"))
        elif wl.workers != 1:
            # untimed --workers 1 pass: the timed passes must reproduce its bytes
            first.append(run_pass(wl, spec_path, 1, reference, pinned))
        deadline = time.monotonic() + seconds
        while not plain or time.monotonic() < deadline:
            plain.append(run_pass(wl, spec_path, wl.workers, reference, pinned))
            if trace:
                traced.append(run_pass(wl, spec_path, wl.workers, reference, pinned, mode="spans"))
            else:
                for _ in range(PROBES_PER_PASS):
                    inv = wl.invocations[len(probes) % len(wl.invocations)]
                    probes.append(run_call(_cli_args(inv, spec_path, WORK / "out", wl.workers), "probe"))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    passes = first + plain + traced
    failures = [f for p in passes for f in p.failures]
    failures += ["probe: exit %d: %s" % (c.code, c.stderr.strip()) for c in probes if c.code != 0]
    for failure in failures:
        print("failed: %s" % failure, file=sys.stderr)
    attempted = sum(len(p.calls) for p in passes) + len(probes)
    timed = [p for p in plain if p.returned]
    print("%s seed=%d passes=%d calls=%d %s" % (name, seed, len(passes), attempted, machine_facts()))
    for i, p in enumerate(plain):
        print("  pass %d: setup_s=%s run_s=%.4f peak_rss_mb=%.1f failures=%d"
              % (i, ",".join("%.4f" % s for s in p.setups), p.run_s, p.peak_mib, len(p.failures)))
    setups = [s for p in timed for s in p.setups] + [c.setup_s for c in probes if c.code == 0]
    print("  setup_s samples: %d, median %.4f" % (len(setups), statistics.median(setups) if setups else 0.0))
    if trace:
        layers = [layer_metrics(p) for p in traced if p.returned]
        values = {k: statistics.median(m[k] for m in layers) if layers else 0.0 for k in PER_LAYER}
        if timed and layers:
            values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(p.run_s for p in timed)
        if first[0].returned:
            peaks = layer_metrics(first[0])
            for k in ("arith.weight_table_peak_mb", "spectral.evaluate_at_peak_mb"):
                values[k] = peaks[k]
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "run_s": statistics.median(p.run_s for p in timed) if timed else 0.0,
            "peak_rss_mb": statistics.median(p.peak_mib for p in timed) if timed else 0.0,
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit on SIGTERM, so that run_call stops the CLI process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload != "all":
            print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        results = {name: [measure(name, args.seed, args.seconds, trace) for trace in (False, True)]
                   for name in workloads.NAMES}
    except SetupError as exc:
        print("benchmark refused: %s" % exc, file=sys.stderr)
        return 1
    for name, runs in results.items():
        for r in runs:
            print("%-15s correct=%s attempted=%d failed=%d" % (name, r["correct"], r["attempted"], r["failed"]))
            for metric, v in r["metrics"].items():
                print("%-15s %-30s %16.6g %s" % (name, metric, v["value"], v["unit"]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
