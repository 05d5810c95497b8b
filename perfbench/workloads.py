"""Workload inputs and the reference results they are checked against.

The engine workloads run the cells of a CLI command, built by the
experiment module that command uses:

* ``fig6_quick``: ``twl-repro fig6 --quick``, serial, at the default
  execution settings (``batch_size`` 1): the per-write loop.
* ``fig6_batched``: the same 20 cells at ``--batch-size 4096``.
* ``stream_ftl``: ``twl-repro stream --quick --batch-size 4096``, four
  schemes under the FTL generator until first failure.

Every workload runs its command's cells at the command's own experiment
seed (2017); the workload seed sets the order the cells run in.  The
seed is not fed to the experiment because the simulated work of a cell
depends on it: under the FTL stream the ``sr`` and ``twl`` cells serve
up to twice as many writes at one seed as at another, which would
swamp the changes the benchmark exists to detect.

``references.json`` holds the digest of every cell's result.
``batch_size`` is an execution knob, so both fig6 workloads are checked
against the same digests.

Regenerate the references (serial, per-write path) with::

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import replace
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

BATCH_SIZE = 4096
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

ENGINE_WORKLOADS = ("fig6_quick", "fig6_batched", "stream_ftl")
#: Reference table each engine workload is checked against.
REFERENCE_KEY = {"fig6_quick": "fig6", "fig6_batched": "fig6", "stream_ftl": "stream_ftl"}


def engine_cells(workload: str, seed: int) -> list:
    """The cells ``workload`` runs, in the order ``seed`` gives them."""
    cells = cli_cells(workload)
    random.Random(seed).shuffle(cells)
    return cells


def cli_cells(workload: str) -> list:
    """The cells of the workload's CLI command, in CLI order."""
    from repro.experiments import fig6, streaming
    from repro.experiments.setups import ATTACKS, FIG6_SCHEMES, quick_setup

    setup = quick_setup()
    if workload in ("fig6_quick", "fig6_batched"):
        # fig6.run builds its grid with this helper; reuse it so the
        # cells are exactly the CLI's.
        cells = [fig6._cell(s, a, setup) for s in FIG6_SCHEMES for a in ATTACKS]
    elif workload == "stream_ftl":
        cells = [streaming._cell(s, setup) for s in streaming.STREAM_SCHEMES]
    else:
        raise ValueError(f"unknown engine workload {workload!r}")
    if workload == "fig6_quick":
        return cells
    # What run_setup_cells does with --batch-size.
    return [replace(cell, batch_size=BATCH_SIZE) for cell in cells]


def label(cell) -> str:
    return f"{cell.scheme}/{cell.workload}"


def result_digest(result) -> str:
    """SHA-256 of the result's canonical JSON (``encode_result``, sorted keys)."""
    from repro.exec import encode_result

    kind, payload = encode_result(result)
    data = json.dumps({"kind": kind, "payload": payload}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def load_reference(workload: str) -> Dict[str, str]:
    """label -> digest for the workload's cells."""
    with open(REFERENCES) as handle:
        return json.load(handle)[REFERENCE_KEY[workload]]


def mismatches(cells: list, results: list, reference: Dict[str, str]) -> List[str]:
    """Labels of the cells whose result differs from the reference."""
    if len(results) != len(cells):
        return [label(cell) for cell in cells]
    return [
        label(cell) for cell, result in zip(cells, results)
        if reference.get(label(cell)) != result_digest(result)
    ]


def write_references() -> None:
    from repro.exec import run_cells

    table: Dict[str, Dict[str, str]] = {}
    for key, workload in (("fig6", "fig6_quick"), ("stream_ftl", "stream_ftl")):
        # The per-write path (batch_size 1) is the reference.
        cells = [replace(c, batch_size=1) for c in cli_cells(workload)]
        results = run_cells(cells)
        table[key] = {label(cell): result_digest(result) for cell, result in zip(cells, results)}
    with open(REFERENCES, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    write_references()
