"""Machine-readable export of reproduction results.

Serialises kernel runs and experiment outcomes to plain JSON-compatible
dictionaries (and to JSON files), so downstream analyses — notebooks,
regression dashboards, paper-comparison scripts — do not need to import
the library's types.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.arch.base import KernelRun
from repro.eval.experiments import EXPERIMENTS, ExperimentResult
from repro.eval.tables import PAPER_TABLE3, run_table3

SCHEMA_VERSION = 1


def _plain(value):
    """Coerce numpy scalars/containers into JSON-safe Python values."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def kernel_run_record(run: KernelRun) -> Dict:
    """A JSON-safe record of one kernel run.  The functional output is
    omitted: the run carries only its ``output_digest``, and
    ``functional_ok`` carries the verdict of the mapping's check of the
    array against the kernel reference."""
    return {
        "kernel": run.kernel,
        "machine": run.machine,
        "clock_hz": run.spec.clock_hz,
        "cycles": run.cycles,
        "kilocycles": run.kilocycles,
        "seconds": run.seconds,
        "breakdown": _plain(run.breakdown.as_dict()),
        "ops": _plain(run.ops.as_dict()),
        "functional_ok": bool(run.functional_ok),
        "flops_per_cycle": run.flops_per_cycle,
        "percent_of_peak": run.percent_of_peak,
        "metrics": _plain(run.metrics),
    }


def experiment_record(outcome: ExperimentResult) -> Dict:
    """A JSON-safe record of one experiment outcome."""
    return {
        "id": outcome.id,
        "title": outcome.title,
        "checks": {
            name: {"model": _plain(model), "paper": _plain(paper)}
            for name, (model, paper) in outcome.checks.items()
        },
        "rendered": outcome.rendered,
    }


def table3_document(
    results: Optional[Mapping[Tuple[str, str], KernelRun]] = None,
) -> Dict:
    """The full Table 3 sweep plus paper values as one document."""
    results = results if results is not None else run_table3()
    return {
        "schema_version": SCHEMA_VERSION,
        "table3": [
            {
                **kernel_run_record(run),
                "paper_kilocycles": PAPER_TABLE3[(kernel, machine)],
            }
            for (kernel, machine), run in sorted(results.items())
        ],
    }


def full_document(
    results: Optional[Mapping[Tuple[str, str], KernelRun]] = None,
    include_experiments: bool = True,
    workloads: Optional[Dict] = None,
) -> Dict:
    """Everything: Table 3 records plus every experiment's checks.

    ``workloads`` (per-kernel overrides) is forwarded to the experiments
    so their re-runs stay consistent with ``results``.
    """
    results = results if results is not None else run_table3(workloads)
    document = table3_document(results)
    if include_experiments:
        document["experiments"] = [
            experiment_record(fn(results=results, workloads=workloads))
            for fn in EXPERIMENTS.values()
        ]
    return document


def write_json(
    path: Union[str, Path],
    document: Optional[Dict] = None,
) -> Path:
    """Write ``document`` (default: :func:`full_document`) to ``path``."""
    path = Path(path)
    if document is None:
        document = full_document()
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


#: Column order of :func:`table3_csv`; floats are written with ``repr``
#: so the file round-trips exactly (golden snapshots diff it verbatim).
CSV_COLUMNS = (
    "kernel",
    "machine",
    "cycles",
    "kilocycles",
    "seconds",
    "paper_kilocycles",
    "flops_per_cycle",
    "percent_of_peak",
    "functional_ok",
)


def table3_csv(
    results: Optional[Mapping[Tuple[str, str], KernelRun]] = None,
) -> str:
    """The Table 3 sweep as CSV text, one row per (kernel, machine).

    Rows are sorted, floats are ``repr``-exact, and the column set is
    :data:`CSV_COLUMNS` — deterministic by construction, which is what
    lets the golden-snapshot test pin the output byte for byte.
    """
    results = results if results is not None else run_table3()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for (kernel, machine), run in sorted(results.items()):
        writer.writerow(
            [
                kernel,
                machine,
                repr(float(run.cycles)),
                repr(float(run.kilocycles)),
                repr(float(run.seconds)),
                repr(float(PAPER_TABLE3[(kernel, machine)])),
                repr(float(run.flops_per_cycle)),
                repr(float(run.percent_of_peak)),
                str(bool(run.functional_ok)),
            ]
        )
    return buffer.getvalue()


def write_csv(
    path: Union[str, Path],
    results: Optional[Mapping[Tuple[str, str], KernelRun]] = None,
) -> Path:
    """Write :func:`table3_csv` to ``path``."""
    path = Path(path)
    path.write_text(table3_csv(results))
    return path
