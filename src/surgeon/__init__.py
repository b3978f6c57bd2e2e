"""Classical invariants of knots and contact structures presented by
contact (+-1/n)-surgery diagrams, computed with exact arithmetic.

Only `diagrams` runs at import.  The other layers (`d3`, `exactlin`,
`fronts`, `invariants`, `surgery`) are registered in `sys.modules` as lazy
modules: each runs its code on first attribute access, so a command that
only checks a diagram file never pays for the linear algebra, and
`import surgeon` stays cheap.  They are registered rather than imported
inside functions so that every `surgeon.<layer>` entry exists from the
start, for code that looks a layer up in `sys.modules` (reading its
`vars()` loads it).  The names re-exported from them resolve in
`__getattr__` on each access, so they always match the layer's binding.

A layer calls another layer's functions through the module that defines
them, as in `exactlin.echelon_form(entries)`, and imports only records and
constants by name.  So each function has one binding, and a wrapper on
its module, whether a test's call counter or the benchmark tracer, sees
every call.
"""

import importlib.util
import sys

from . import diagrams

# Each public name, by the module that defines it.
_EXPORTS = {
    "diagrams": ("CompanionKnot", "ContactCoefficient", "Diagnostic", "LegendrianComponent",
                 "SurgeryDiagram", "topological_coefficient", "validate"),
    "d3": ("D3Report", "d3_report"),
    "exactlin": ("SNFDecomposition", "SolveResult", "minimal_order_solve", "smith_normal_form",
                 "symmetric_signature"),
    "fronts": ("FrontDocument", "FrontError", "FrontInvariants", "classical_invariants",
               "parse_front", "to_diagram"),
    "invariants": ("InvariantReport", "invariant_report"),
    "surgery": ("GeneralizedLinkingMatrix", "HomologyPresentation", "diagram_signature",
                "expand_to_pm1", "homology", "linking_matrix"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

for _layer in _EXPORTS:
    if _layer != "diagrams":
        _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        _module = importlib.util.module_from_spec(_spec)
        sys.modules[_spec.name] = globals()[_layer] = _module
        _spec.loader.exec_module(_module)

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
