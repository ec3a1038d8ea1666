#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs it.

    python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Every other argument (--list, --bless) goes to the binary unchanged.
--trace 1 asks for the per-layer run; its spans are written under
.bench_build/e2e/. The build lives in .bench_build/e2e at the root of the
checkout; build output goes to stderr, so the binary's last stdout line —
one JSON result object — is also this script's last stdout line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "runner.cpp")):
        sys.stderr.write("run.py: no simulator sources under %s/src\n" % ROOT)
        return 2
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        code = subprocess.call(cmd, stdout=sys.stderr, env=env)
        if code != 0:
            sys.stderr.write("run.py: '%s' exited with %d\n"
                             % (" ".join(cmd), code))
            return code
    return 0


def translate(argv):
    """Maps --trace 0|1 onto the binary's --trace SPANS.json."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--trace":
            if i + 1 >= len(argv) or argv[i + 1] not in ("0", "1"):
                raise ValueError("--trace takes 0 or 1")
            if argv[i + 1] == "1":
                out += ["--trace", os.path.join(BUILD, "spans.json")]
            i += 2
            continue
        out.append(argv[i])
        i += 1
    return out


def main(argv):
    try:
        args = translate(argv)
    except ValueError as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 2
    code = build()
    if code != 0:
        return code
    sys.stdout.flush()
    return subprocess.call([os.path.join(BUILD, "bench_e2e")] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
