"""T7 (Fig 6a): ONLINE-UNION sampling time vs sample size, with vs
without warm-up sample reuse."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import print_table, t7_reuse  # noqa: E402

if __name__ == "__main__":
    args = base_parser(__doc__).parse_args()
    rows = t7_reuse(sf=args.sf, seed=args.seed)
    print_table(rows, "T7: online union sampling, reuse vs no reuse (Fig 6a)")
