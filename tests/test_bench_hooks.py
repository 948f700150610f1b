"""The benchmark tracer's hook sites still name functions of the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: Sites that name functions the package no longer has.  A traced benchmark
#: run lists them under "hooks not found" until the benchmark drops them.
KNOWN_STALE = {
    "splitsvm.cli.min_eigenvalue",
    "splitsvm.admm.cg_solve",
    "splitsvm.kernels.cg_solve",
}


def hook_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [dotted for _, sites in spans.HOOKS for dotted in sites]


def test_every_hook_site_resolves():
    unresolved = set()
    for dotted in hook_sites():
        mod_name, attr = dotted.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(mod_name), attr, None)):
            unresolved.add(dotted)
    assert unresolved <= KNOWN_STALE, sorted(unresolved - KNOWN_STALE)
