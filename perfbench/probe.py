"""Import probe: how fast the machine is at this moment.

Imports what a job imports before it runs, minus the program itself (numpy,
its Legendre module, scipy.linalg and the standard modules the CLI uses),
then prints the monotonic time.  The parent subtracts its spawn time.  The
program's code never runs here, so a change to the program cannot change
this time; the box's speed, which drifts by 20-30 % over minutes, does.
"""

import argparse  # noqa: F401
import hashlib  # noqa: F401
import json  # noqa: F401
import tempfile  # noqa: F401
import time

import numpy.polynomial.legendre  # noqa: F401
import scipy.linalg  # noqa: F401

print(time.monotonic())
