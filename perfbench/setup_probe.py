"""Time one set-up in a fresh interpreter and print it as JSON.

    python setup_probe.py [file.mag ...] [--algebra file.mag ...]

Set-up is `import magraph` plus loading each file and building the inputs the
timed loop reuses: the adjacency matrix, and for files after `--algebra` also
the incidence matrix and the three Laplacians. Nothing else is imported
before the clock starts, so numpy and scipy load inside the measured import.
"""

import json
import sys
import time

t0 = time.perf_counter()
import magraph  # noqa: E402

import_s = time.perf_counter() - t0
algebra = False
for arg in sys.argv[1:]:
    if arg == "--algebra":
        algebra = True
        continue
    mag = magraph.load_mag(arg)
    magraph.adjacency_matrix(mag)
    if algebra:
        c = magraph.incidence_matrix(mag)[0].matrix
        magraph.combinatorial_laplacian(c)
        magraph.weighted_laplacian(c, mag.edge_weights)
        magraph.normalized_laplacian(c)
print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - t0}))
