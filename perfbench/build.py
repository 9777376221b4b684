"""Build file of the benchmark: compiles the program's main sources together
with the harness in `perfbench/src` into `.bench_build/perfbench/classes`.

The Scala compiler and every library come from the Spark distribution the
program runs on (`$SPARK_HOME/jars`, or the one `spark-submit` on PATH
belongs to), so the build resolves no dependencies. A stamp over the sources
skips the compile when nothing changed.

    python3 perfbench/build.py        # from the repository root
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

MAIN_SOURCES = os.path.join("src", "main", "scala")
BENCH_SOURCES = os.path.join("perfbench", "src")
OUT = os.path.join(".bench_build", "perfbench")


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("no Spark found: set SPARK_HOME or put spark-submit on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars")
    if not os.path.isdir(jars):
        raise BuildError(f"no jars directory in Spark home {home}")
    return jars


def sources(root):
    main = sorted(glob.glob(os.path.join(root, MAIN_SOURCES, "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(root, BENCH_SOURCES, "**", "*.scala"), recursive=True))
    if not main:
        raise BuildError(f"no program sources under {MAIN_SOURCES}: run from the repository root")
    if not bench:
        raise BuildError(f"no harness sources under {BENCH_SOURCES}")
    return main + bench


def compiler_classpath(jars):
    parts = []
    for name in ("scala-compiler", "scala-library", "scala-reflect"):
        found = sorted(glob.glob(os.path.join(jars, f"{name}-2.*.jar")))
        if not found:
            raise BuildError(f"{name} jar missing from {jars}")
        parts.append(found[-1])
    return os.pathsep.join(parts)


def source_stamp(root, jars):
    """SHA-256 over the compiler jars' names and every source's path and bytes."""
    digest = hashlib.sha256(compiler_classpath(jars).encode())
    for path in sources(root):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def build(root):
    """Compile if needed; return the classes directory."""
    jars = spark_jars()
    srcs = sources(root)
    stamp = source_stamp(root, jars)

    out = os.path.join(root, OUT)
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "classes.stamp")
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                return classes

    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    args_file = os.path.join(out, "sources.args")
    with open(args_file, "w") as f:
        f.write("\n".join(srcs) + "\n")
    cmd = ["java", "-Xmx2g", "-Xss8m", "-cp", compiler_classpath(jars), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", os.path.join(jars, "*"), "-d", classes, "@" + args_file]
    print(f"[perfbench] compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("compilation failed")
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")
    return classes


if __name__ == "__main__":
    try:
        print(build(os.getcwd()))
    except BuildError as e:
        print(f"[perfbench] build error: {e}", file=sys.stderr)
        sys.exit(2)
