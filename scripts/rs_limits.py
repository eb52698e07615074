"""Print the `rs-limit` JSON line of every quantum RS code of the given fields.

    PYTHONPATH=src python scripts/rs_limits.py 3 4 5 6 > rs-m3-6.txt

For each m given, one line per odd K = 1, 3, .., 2^m - 5, from one
interpreter; exits non-zero if any `rs-limit` call did.
"""

import sys

from qburst.searchcli import main

sys.exit(max((main(["rs-limit", "--m", m, "--kq", str(K)])
              for m in sys.argv[1:] for K in range(1, (1 << int(m)) - 4, 2)), default=0))
