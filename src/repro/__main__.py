"""``python -m repro`` — print the paper's headline comparison.

Runs the Fig. 2, Fig. 3 and claims experiments (E2–E6) exactly as
committed under ``benchmarks/results/`` and prints their tables; takes
no options. ``python -m repro.obs bench`` regenerates and checks every
committed artifact.
"""

from __future__ import annotations

import argparse

from .bench.paper import comparison_claims, fig2_bullet, fig3_nfs


def main(argv=None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro",
        description="Print the Bullet-vs-NFS comparison "
                    "(van Renesse et al., ICDCS 1989).",
    ).parse_args(argv)
    for experiment in (fig2_bullet, fig3_nfs, comparison_claims):
        print(experiment(), end="\n\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
