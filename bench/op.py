"""One benchmark operation in a fresh, single-threaded interpreter.

Usage: python3 bench/op.py REQUEST.json

The request (written by ``bench/run.py``) holds the package source directory,
the scenario file, the CLI arguments (none for a set-up probe), whether to
trace, and where to write the result. The operation:

1. imports ``deferauction.cli`` from the given source tree and resolves the
   scenario; ``time.monotonic()`` at that point ends the set-up time, which
   the parent started just before it spawned this process;
2. calls ``cli.main(argv)`` and times it, with tracing if asked;
3. writes the exit code, wall time, peak resident memory and, when traced,
   the per-layer summary as JSON, and the raw spans to an ``.npz`` beside it.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MiB (Linux).

    ``ru_maxrss`` is not used: Linux carries the spawning process's high-water
    mark over into it across exec. ``VmHWM`` belongs to this image alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    from deferauction import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"deferauction imported from {cli.__file__}, not from {src}")
    with open(request["scenario"], encoding="utf-8") as fh:
        cli.resolve_scenario(json.load(fh))
    result: dict[str, object] = {"ready": time.monotonic()}

    if request["argv"] is not None:
        run = cli.main
        tracer = None
        if request["trace"]:
            from spans import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.wrap(cli.main, ROOT)
        start = time.perf_counter()
        result["exit_code"] = run(request["argv"])
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.dump(Path(request["spans"]))
    result["peak_rss_mb"] = peak_rss_mb()
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
