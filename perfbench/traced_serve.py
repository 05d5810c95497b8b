"""``twl-repro serve`` with the span recorder installed (traced ``serve_mix``).

Usage: ``python3 perfbench/traced_serve.py SPANS.jsonl serve --state-dir ...``

Wraps the layers in the server process (the ``exec`` fingerprint and
cache calls on the request path), runs the real ``serve`` entry point,
and on exit writes the spans to ``SPANS.jsonl`` and the per-name
totals to ``SPANS.jsonl.totals.json``.  Pool workers are spawned fresh
and are not traced.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv) -> int:
    spans_path, verb, *serve_argv = argv
    if verb != "serve":
        raise SystemExit(f"usage: traced_serve.py SPANS serve ARGS (got {verb!r})")
    from repro.serve.cli import serve_main

    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        return serve_main(serve_argv)
    finally:
        recorder.uninstall()
        recorder.write_jsonl(spans_path)
        with open(spans_path + ".totals.json", "w") as handle:
            json.dump({"totals": recorder.totals(), "counters": recorder.counters()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
