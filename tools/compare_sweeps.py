"""Run the sweeps under a git revision's src and under the working tree's, and print what differs.

    python tools/compare_sweeps.py REV [extra.spec ...]

REV's src/ is extracted with `git archive` into a temporary directory.
tools/cli_sweep.py, tools/level_sweep.py, tools/spec_sweep.py and
tools/group_sweep.py then run from the working tree, once with that src on
PYTHONPATH and once with the working tree's src, so the scripts and the
spec files they read are the same for both and only the package differs.
Spec files named after REV are passed to every sweep.  For each sweep the
script prints a unified diff of the two outputs (empty when they agree) and
a one-line summary; a last line gives the line count of src/**/*.py under
REV and under the working tree, for information only.  Exit status: 0 when
every sweep printed the same lines under both trees, 1 on any difference,
2 when a sweep or git fails.  Nothing is fetched; REV must be in the local
repository.
"""

import difflib
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEPS = ("tools/cli_sweep.py", "tools/level_sweep.py", "tools/spec_sweep.py", "tools/group_sweep.py")


def sweep(script: str, src: str, extra) -> list:
    """The lines script prints with src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, script, *extra], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s under %s exited %d:\n%s" % (script, src, proc.returncode, proc.stderr))
    return proc.stdout.splitlines(keepends=True)


def src_lines(src: pathlib.Path) -> int:
    """Lines of every .py file under src, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def main(argv) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev, extra = argv[0], [os.path.abspath(spec) for spec in argv[1:]]
    differ = False
    with tempfile.TemporaryDirectory(prefix="compare_sweeps_") as tmp:
        try:
            archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
            for script in SWEEPS:
                before = sweep(script, os.path.join(tmp, "src"), extra)
                after = sweep(script, str(ROOT / "src"), extra)
                diff = list(difflib.unified_diff(before, after, "%s (%s src)" % (script, rev), script + " (working src)"))
                sys.stdout.writelines(diff)
                print("%s: %d and %d lines, %s" % (script, len(before), len(after), "DIFFER" if diff else "identical"))
                differ = differ or bool(diff)
            before, after = src_lines(pathlib.Path(tmp, "src")), src_lines(ROOT / "src")
            print("src/**/*.py: %d lines under %s, %d in the working tree (%+d)" % (before, rev, after, after - before))
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            stderr = getattr(exc, "stderr", None)
            print("error: %s%s" % (exc, "\n" + stderr.decode(errors="replace") if stderr else ""), file=sys.stderr)
            return 2
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
