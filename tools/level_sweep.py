"""Print one hash per substitution and Morse system, over its digit-level tables.

For each such system the system's stream is built again from its bound
definition, read at positions 0, 2^40 and 2^62 + 5, and hashed: the hash
covers the symbols read and the radix, shape, dtype and bytes of every
level the stream's DigitReader built for those reads.  A call that raises
prints the exception's type instead of a hash.  The systems are those of
specs/*.spec, tests/fixtures/specs/valid/*.spec and any spec files named on
the command line, then those of the three benchmark workloads
(perfbench/workloads.generate(name, 777)).  Run from the repository root,
once with each tree's src on PYTHONPATH, and diff the two outputs:

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
            if bound.kind in STREAMS:
                print("%s  %s %s" % (digest(bound), where, name), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
