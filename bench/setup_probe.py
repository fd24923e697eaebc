"""Set-up time of a fresh process, in seconds.

Timed from before ``import parley`` through ``parse_scenario`` and
``build_runtime`` of every scenario file named on the command line, with
the speed sampler of reference.py running.  Prints the host seconds
and the seconds scaled to the nominal machine.

    python3 bench/setup_probe.py SCENARIO.json [SCENARIO.json ...]
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402

with reference.SpeedSampler() as speed:
    mark = speed.mark()
    with speed.timing():
        start = time.perf_counter()
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
        from parley.scenario import build_runtime, parse_scenario

        for path in sys.argv[1:]:
            build_runtime(parse_scenario(path))
        host_s = time.perf_counter() - start
    stolen_s, scale = speed.since(mark)
print(f"{host_s - stolen_s:.9f} {(host_s - stolen_s) * scale:.9f}")
