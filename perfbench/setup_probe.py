"""Time isobath's set-up in a fresh interpreter and print the seconds.

Set-up is what every run pays before its first mission: importing the
package (numpy, scipy, and the risk module's fitted erf correction),
loading the config, and building the lake and the planning, output and
trace grids. Prints those seconds and the median time of the reference
loop run right after. Usage:
``python3 perfbench/setup_probe.py <config.json>``.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isobath.cli import load_config  # noqa: E402
from isobath.environment import eval_grid, synthetic_lake  # noqa: E402

config = load_config(sys.argv[1], env={})
area = config.area()
synthetic_lake(
    config.bathymetry_family, config.bathymetry_params, area, level=config.level
)
for resolution in (
    config.planning_resolution,
    config.output_resolution,
    config.trace_resolution,
):
    eval_grid(area, resolution)
setup_s = time.perf_counter() - _START

# The host's speed right after, on this interpreter's own core, for
# scaling to reference speed (see speed.py).
from speed import reference_loop  # noqa: E402

costs = []
for _ in range(20):
    start = time.perf_counter()
    reference_loop()
    costs.append(time.perf_counter() - start)
print(repr(setup_s), repr(sorted(costs)[len(costs) // 2]))
