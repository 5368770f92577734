"""Kernel performance layer: reusable workspaces and cached tables.

The paper's contribution is making collapsed Gibbs sampling fast; this
package removes the Python-side costs that stand between the NumPy
expression of those kernels and the hardware:

- :class:`~repro.perf.workspace.Workspace` — a grow-only buffer pool
  keyed by (role, dtype) so steady-state sampling iterations reuse the
  same arrays instead of reallocating ~15 temporaries per chunk pass;
- :mod:`~repro.perf.tables` — cached ``lnG(n + offset)`` lookup tables
  turning the likelihood's per-element ``gammaln`` calls into gathers.

Everything here is value-preserving by construction: a kernel given a
workspace produces bit-identical float64 results to the same kernel
allocating fresh arrays (asserted by tests/test_golden_regression.py).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first access (the tables
#: need scipy; the workspace does not).
_EXPORTS = {
    "Workspace": "repro.perf.workspace",
    "counts_of_counts_lngamma": "repro.perf.tables",
    "lngamma_table": "repro.perf.tables",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
