"""Print one hash per system: its digit-level tables, or its runs for RS and Veech.

For each substitution and Morse system the system's stream is built again
from its bound definition, read at positions 0, 2^40 and 2^62 + 5, and
hashed: the hash covers the symbols read and the radix, shape, dtype and
bytes of every level the stream's DigitReader built for those reads.  Each
RS and Veech system, which reads without digit levels, is read from each of
those positions as a run of RUN symbols (crossing 2^16-position blocks) and
at the same positions one by one; the hash covers the runs, and the line
says whether the positional reads agree with them.  Runs that far out are
reached only through the library: the CLI's runs end near s N <= 2^30.  A
call that raises prints the exception's type instead of a hash.  The
systems are those of specs/*.spec, tests/fixtures/specs/valid/*.spec and
any spec files named on the command line, then those of the three
benchmark workloads (perfbench/workloads.generate(name, 777)).  Run from
the repository root, once with each tree's src on PYTHONPATH, and diff the
two outputs:

    PYTHONPATH=src python tools/level_sweep.py [extra.spec ...] > after.txt

tools/compare_sweeps.py REV does this, and the same for the other sweeps,
against the src of the git revision REV.
"""

import hashlib
import os
import pathlib
import sys

import numpy as np

from mobiuslab import morse, streams, subst
from mobiuslab.cli import load_document
from mobiuslab.specfile import parse_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
POSITIONS = np.array([0, 1 << 40, (1 << 62) + 5], dtype=np.int64)
STREAMS = {"substitution": subst.fixed_point_stream, "morse": morse.morse_stream}
RUN = 3 * (1 << 16) + 5


def digest(bound) -> str:
    """Hash of the symbols at POSITIONS and of every digit level read for them."""
    readers = []  # the DigitReader the stream builds, recorded by a wrapped __init__
    init = streams.DigitReader.__init__

    def recording_init(self, *args):
        init(self, *args)
        readers.append(self)

    streams.DigitReader.__init__ = recording_init
    try:
        stream = STREAMS[bound.kind](bound.definition)
        (reader,) = readers
        h = hashlib.sha256(stream.at(POSITIONS).tobytes())
        for radix, table in reader._levels:
            h.update(("%d %s %s\0" % (radix, table.shape, table.dtype.str)).encode("ascii") + table.tobytes())
        return "%s levels=%d max=%d" % (h.hexdigest()[:16], len(reader._levels),
                                         max(table.size for _, table in reader._levels))
    except Exception as exc:  # a level too large to build is reported, and the sweep goes on
        return "raised %s" % type(exc).__name__
    finally:
        streams.DigitReader.__init__ = init


def run_digest(bound) -> str:
    """Hash of the runs of RUN symbols from POSITIONS, each read also at its positions."""
    h, agree = hashlib.sha256(), True
    for start in POSITIONS.tolist():
        run = bound.stream.block(start, RUN)
        agree = agree and np.array_equal(run, bound.stream.at(start + np.arange(RUN)))
        h.update(run.tobytes())
    return "%s runs %s" % (h.hexdigest()[:16], "agree" if agree else "DISAGREE")


def main(extra) -> int:
    extra = [os.path.abspath(spec) for spec in extra]
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    specs = sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("specs/*.spec"))
    specs += sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("tests/fixtures/specs/valid/*.spec"))
    documents = [(spec, load_document(spec)) for spec in specs + extra]
    documents += [("workload " + name, parse_spec(workloads.generate(name, 777).spec_text)) for name in workloads.NAMES]
    for where, doc in documents:
        for name, bound in sorted(doc.bound.items()):
            line = digest(bound) if bound.kind in STREAMS else run_digest(bound)
            print("%s  %s %s" % (line, where, name), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
