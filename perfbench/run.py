#!/usr/bin/env python3
"""Build and run the repo benchmark from this checkout's sources.

Run from the checkout root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare A.txt B.txt

The first form builds perfbench/fdbench.exe and bin/fdkit.exe with dune
(dune's output goes to stderr), then runs one workload; the last line of
stdout is the run's summary, the line before it the stamped record.
Workloads and metrics are declared in BENCHMARK.json.  The second form
compares two files holding the stdout of many runs.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: %s is not a source checkout (no dune-project)\n" % root)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    # Settings that change how the engine runs must not leak in from the
    # caller's environment.
    env = {k: v for k, v in os.environ.items() if k not in ("OCAMLRUNPARAM", "BENCH_JOBS")}
    build = subprocess.run(
        [dune, "build", "--root", root, "--display", "quiet",
         "./perfbench/fdbench.exe", "./bin/fdkit.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "fdbench.exe")
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args += ["--fdkit", os.path.join("_build", "default", "bin", "fdkit.exe")]
    os.chdir(root)
    sys.stdout.flush()
    os.execve(exe, [exe] + args, env)


if __name__ == "__main__":
    sys.exit(main())
