"""The import-layer DAG the ``layering`` rule enforces.

The reproduction's determinism story depends on a one-way dependency flow:
the model stack (``core``/``power``/``sim``/...) computes results, the
runtime orchestrates it, telemetry observes from the side, and the CLI sits
on top.  A single stray ``from repro.obs import ...`` inside the sim layer
would let telemetry state reach result computation -- exactly the class of
bug the "telemetry is bit-inert" contract forbids -- so the layering is
enforced structurally, on *top-level* imports.

Function-scoped deferred imports are deliberately exempt: they are the
repo's sanctioned cycle-breaking idiom (the runtime lazily importing the
scenario registry, ``hw.spec.build`` lazily importing calibration), and
they cannot create import-time coupling.

Layers, bottom to top::

    base        config, hashing, numeric, params (imports: base)
    model       core, memory, soc, power, hw,    (imports: base, model)
                workloads, perf, baselines, sim
    obs         obs/**                           (imports: base, obs)
    runtime     runtime/**                       (imports: base, model, obs, runtime)
    scenarios   scenarios/**                     (imports: + runtime, scenarios)
    experiments experiments/**                   (imports: + scenarios, experiments)
    fleet       fleet/**                         (imports: + scenarios, fleet)
    app         cli/**, __main__, api, analysis, (imports: anything)
                package __init__

The crucial edges *absent* from this DAG: model cannot see obs or runtime
(telemetry/orchestration cannot perturb results), and obs cannot see
runtime or model (observation cannot reach back into execution).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

__all__ = ["ALLOWED", "LAYERS", "layer_of", "layering_violation"]

#: Longest-prefix-match table from dotted module to layer.
LAYERS: Dict[str, str] = {
    "repro.config": "base",
    "repro.hashing": "base",
    "repro.numeric": "base",
    "repro.params": "base",
    "repro.core": "model",
    "repro.memory": "model",
    "repro.soc": "model",
    "repro.power": "model",
    "repro.hw": "model",
    "repro.workloads": "model",
    "repro.perf": "model",
    "repro.baselines": "model",
    "repro.sim": "model",
    "repro.obs": "obs",
    "repro.runtime": "runtime",
    "repro.scenarios": "scenarios",
    "repro.experiments": "experiments",
    "repro.fleet": "fleet",
    # Everything else under repro (package __init__, __main__, api, cli,
    # analysis) is app-layer: free to import the whole stack.
    "repro": "app",
}

#: What each layer's top-level imports may reach (within ``repro``).
ALLOWED: Dict[str, Set[str]] = {
    "base": {"base"},
    "model": {"base", "model"},
    "obs": {"base", "obs"},
    "runtime": {"base", "model", "obs", "runtime"},
    "scenarios": {"base", "model", "obs", "runtime", "scenarios"},
    "experiments": {"base", "model", "obs", "runtime", "scenarios", "experiments"},
    "fleet": {"base", "model", "obs", "runtime", "scenarios", "fleet"},
    "app": {
        "base", "model", "obs", "runtime", "scenarios", "experiments", "fleet", "app",
    },
}


def layer_of(module: str) -> Optional[str]:
    """Layer of a dotted module name (longest prefix wins); None if foreign."""
    if module != "repro" and not module.startswith("repro."):
        return None
    parts = module.split(".")
    while parts:
        layer = LAYERS.get(".".join(parts))
        if layer is not None:
            return layer
        parts.pop()
    return None


def layering_violation(importer: str, imported: str) -> Optional[str]:
    """A message if ``importer``'s top-level import of ``imported`` breaks
    the DAG; None when the edge is allowed or either side is foreign."""
    importer_layer = layer_of(importer)
    imported_layer = layer_of(imported)
    if importer_layer is None or imported_layer is None:
        return None
    if imported_layer in ALLOWED[importer_layer]:
        return None
    return (
        f"{importer_layer}-layer module imports {imported!r} "
        f"({imported_layer} layer); allowed layers: "
        f"{', '.join(sorted(ALLOWED[importer_layer]))}"
    )
