"""T5 (Fig 5c-e): sampling time vs sample count, UQ1/UQ2/UQ3 × three
framework instantiations."""
import sys

sys.path.insert(0, ".")
from _common import base_parser  # noqa: E402

from repro.experiments.tables import print_table, t5_scale_samples  # noqa: E402

if __name__ == "__main__":
    args = base_parser(__doc__).parse_args()
    rows = t5_scale_samples(sf=args.sf, seed=args.seed)
    print_table(rows, "T5: sampling time vs sample count (Fig 5c-e)")
