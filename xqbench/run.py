#!/usr/bin/env python3
"""Run one workload of the xqview benchmark from the root of a checkout.

    python3 xqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the release `xqview-server` binary and the `xqbench` binary from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
benchmark binary, which prints the result as the last line of standard output.
Everything the run writes stays under `.bench_build/` in the checkout.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"xqbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, target_name):
    """Build with cargo; return (executable, profile) of `target_name`."""
    cmd = ["cargo", "build", "--release", "--offline",
           "--message-format=json-render-diagnostics", *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == target_name
                and msg.get("executable")):
            return msg["executable"], msg.get("profile", {})
    fail(f"cargo reported no executable for {target_name}")


SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates"]


def source_digest():
    """A digest of the server's sources."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def source_id():
    """The git commit, with a `-dirty` suffix and a source digest when the
    server's sources differ from it; without git, the source digest."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        head = git("rev-parse", "HEAD")
        changed = git("status", "--porcelain", "--", *SOURCES)
    except (OSError, subprocess.TimeoutExpired):
        head = changed = None
    if head is None or changed is None:
        return source_digest()
    return f"{head}-dirty-{source_digest()}" if changed else head


def main():
    argv = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
            os.path.join(ROOT, "crates", "server")):
        fail(f"{ROOT} is not an xqview checkout (no Cargo.toml or crates/server)")
    work = os.path.join(ROOT, ".bench_build", "xqbench")
    os.makedirs(work, exist_ok=True)
    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))

    server, profile = cargo_build(["-p", "server", "--bin", "xqview-server"], "xqview-server")
    bench, _ = cargo_build(["--manifest-path", os.path.join("xqbench", "Cargo.toml")], "xqbench")
    cmd = [bench, *argv, "--server", server,
           "--server-opt-level", str(profile.get("opt_level", "unknown")),
           "--server-debug-assertions", str(profile.get("debug_assertions", "unknown")).lower(),
           "--commit", source_id(), "--work", work]
    # A session of its own, so whatever the benchmark binary leaves behind can be
    # stopped as a group.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"xqbench: run exceeded {RUN_TIMEOUT_S} s, stopped", file=sys.stderr)
        code = 1
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
