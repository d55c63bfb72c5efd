"""Pin BLAS to one thread for every test run from this checkout.

Set before numpy is first imported, which reads these variables once:
two test processes on a small machine would otherwise each start a
thread per core and oversubscribe it. A value already in the
environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
