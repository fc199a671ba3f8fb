"""Wall-time benchmark of the involutive package, with a traced per-layer run.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  The benchmark drives the package only through its
public entry points; the traced run wraps the layer boundaries from this
directory's own code and leaves ``src/`` untouched.
"""
