"""Accuracy-vs-noise surface via the scenario-sweep subsystem.

The paper evaluates its verification scheme at one noise level; this
example sweeps the oscilloscope noise sigma against the DUT trace
budget and prints the resulting identification-accuracy surface plus
the screening ROC AUC per noise level:

1. declare the sweep once (:class:`repro.SweepSpec`) — a grid over
   ``noise.sigma`` and ``parameters.n2`` at a reduced, fast parameter
   point;
2. execute it (:func:`repro.sweeps.run`) into a content-addressed
   :class:`repro.SweepStore` — rerunning this script on the same
   ``store_dir`` reuses every scenario already on disk, and the result
   bytes are identical for any worker count;
3. aggregate the store into tidy tables.

Run with::

    python examples/noise_sweep.py [store_dir]

Without ``store_dir`` the store is a temporary directory, removed when
the script ends; a named ``store_dir`` is kept.
"""

import sys
import tempfile

from repro import GridAxis, SweepSpec, SweepStore, expand_scenarios
from repro.sweeps import run
from repro.sweeps.aggregate import accuracy_pivot, roc_by_axis, tidy_accuracy
from repro.analysis.aggregate import render_rows


def main(store_dir: str = "") -> None:
    if not store_dir:
        with tempfile.TemporaryDirectory(prefix="noise_sweep_") as scratch:
            main(scratch)
        return

    # 1. The sweep: 4 noise levels x 3 trace budgets, reduced-cost
    #    correlation parameters (k = 8, m = 8, alpha = 4..16).
    spec = SweepSpec(
        name="noise-surface",
        grid=(
            GridAxis("noise.sigma", (0.5, 1.0, 1.5, 2.0)),
            GridAxis("parameters.n2", (256, 512, 1024)),
        ),
        base={"parameters.k": 8, "parameters.m": 8, "parameters.n1": 64},
        seed=2014,
    )
    scenarios = expand_scenarios(spec)

    # 2. Execute into the (resumable) store.
    store = SweepStore(store_dir)
    report = run(spec, store)
    print(
        f"{report.n_scenarios} scenarios: executed {report.n_executed}, "
        f"reused {report.n_cached} from {store.root}"
    )

    # 3. Aggregate: the accuracy surface and the screening AUC.
    rows = tidy_accuracy(store, scenarios)
    for distinguisher in ("higher-mean", "lower-variance"):
        print()
        print(f"identification accuracy [{distinguisher}]:")
        print(
            accuracy_pivot(
                rows, "noise.sigma", "parameters.n2", distinguisher=distinguisher
            )
        )
    print()
    print("counterfeit-screening AUC by noise level:")
    print(render_rows(roc_by_axis(store, "noise.sigma", scenarios)))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "")
