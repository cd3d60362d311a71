#!/usr/bin/env python3
"""Build and run the performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpch-tune --seed 1 --seconds 10 --trace 0

The first run in a checkout compiles the program's sources together with the
benchmark code (sbt, offline); later runs reuse the build while no source
has changed. The JVM prints diagnostics and, as its last line, the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD_DIR = os.path.join(HERE, "target")
STAMP = os.path.join(BUILD_DIR, "perfbench-build.json")
OUT_DIR = os.path.join(HERE, "out")
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 800
HEAP = "2g"

JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Digest of every file the build reads from the checkout."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def run_limited(cmd, limit, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {limit} s")
    return proc.returncode, out


def build(env):
    digest = source_hash()
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("hash") == digest:
            return stamp["classpath"]
    if not shutil.which("sbt"):
        fail("sbt not found on PATH")
    sbt_env = dict(env)
    sbt_env.setdefault("COURSIER_MODE", "offline")
    sbt_env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true "
                       f"-Dsbt.repository.config={os.path.expanduser('~/.sbt/repositories')}")
    code, out = run_limited(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        BUILD_LIMIT_S, cwd=HERE, env=sbt_env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    sys.stderr.write(out)
    if code != 0:
        fail(f"build failed (sbt exit {code})")
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if not lines:
        fail("build printed no classpath")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(STAMP, "w") as fh:
        json.dump({"hash": digest, "classpath": lines[-1].strip()}, fh)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SRC, os.getcwd())}")

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    classpath = build(env)

    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseSerialGC", *JAVA_OPENS,
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT_DIR]
    code, _ = run_limited(cmd, RUN_LIMIT_S, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
