"""Set-up probe: a fresh process that imports tilingforge the way the CLI
does, parses each instance given as JSON in argv[1], and runs each search
to its first node (`node_budget=1`).  It then prints
"ready <sampled seconds> <reference seconds> <host speed>" for the stretch
after its first line, which runs under the host-speed sampler; the parent
adds the unsampled interpreter start-up.
"""

import sys
import time

import calibrate

with calibrate.Speedometer() as speedometer:
    start = time.perf_counter()
    import json
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tilingforge.cli import parse_sides, parse_target
    from tilingforge.search import SearchConfig, run_search
    from tilingforge.tilealgebra import tile_from_sides

    for sides, target, allow_mirror in json.loads(sys.argv[1]):
        tile = tile_from_sides(*parse_sides(sides))
        out = run_search(tile, parse_target(target, tile),
                         SearchConfig(node_budget=1, allow_mirror=allow_mirror))
        if out.stats.nodes != 1:
            sys.exit(f"first node not reached for {sides} / {target}: {out.status}")
    end = time.perf_counter()
print("ready", end - start, speedometer.reference_s(start, end), speedometer.speed(), flush=True)
