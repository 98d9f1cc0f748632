"""Smoke test of the benchmark itself, at small N.

    python3 perfbench/smoke.py

Checks that workload generation depends only on the seed, that the oracle
reproduces tests/fixtures/golden/ and rejects altered reports, and that a
run of every workload at N = 2^12 is correct and emits exactly the metrics
BENCHMARK.json lists, each with its unit, with tracing off and on.  Prints
one line per check and exits nonzero at the first failure.
"""

from __future__ import annotations

import json
import sys

import oracle
import run
import workloads


def check(ok: bool, what: str):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        raise SystemExit(1)


def main() -> int:
    for name in workloads.NAMES:
        check(workloads.generate(name, 7) == workloads.generate(name, 7), "%s: same seed, same workload" % name)
    texts = {workloads.generate("sarnak_seq", seed).spec_text for seed in range(8)}
    check(len(texts) > 1, "seeds 0..7 give different sarnak_seq specs")
    shapes = {
        (tuple(len(i.args) for i in w.invocations), len(w.spec_text.splitlines()))
        for w in (workloads.generate("digit_spectral", seed) for seed in range(8))
    }
    check(len(shapes) == 1, "seeds change contents, not shapes")

    csv, kbsz = oracle.golden_outputs()
    check(csv == (run.GOLDEN / "sarnak_tm_moebius_pow2.csv").read_bytes(), "oracle Sarnak CSV equals the golden bytes")
    golden_kbsz = json.loads((run.GOLDEN / "kbsz_tm_3_5.json").read_text())["value"]
    check(kbsz == golden_kbsz, "oracle KBSZ final equals the golden value")

    reference = oracle.Reference(workloads.generate("kbsz_dilated", 7, log2_n=8))
    name, data = next(iter(reference.exact.items()))
    check(reference.check(name, data) is None, "oracle accepts its own report")
    check(reference.check(name, data.replace(b"\n1,", b"\n1,-", 1)) is not None, "oracle rejects an altered CSV")
    doc_name = name.replace(".csv", ".json")
    doc = json.loads(json.dumps(reference.json_docs[doc_name]))
    doc["rows"][-1]["real"] += 1.0
    check(reference.check(doc_name, json.dumps(doc).encode()) is not None, "oracle rejects an altered JSON value")

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check({w["name"] for w in bench["workloads"]} == set(workloads.NAMES), "BENCHMARK.json lists every workload")
    for name in workloads.NAMES:
        for trace in (False, True):
            result = run.measure(name, 7, 0, trace, log2_n=12, log2_n_spectral=10)
            label = "%s trace=%d" % (name, trace)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label + ": correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == listed[trace], label + ": every listed metric, with its unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
