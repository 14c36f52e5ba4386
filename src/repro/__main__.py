"""``python -m repro`` — regenerate the paper's headline comparison.

Runs a quick version of Figures 2 and 3 (one repeat per cell) on the
calibrated testbed and prints the tables, the claim checks, and the
bandwidth chart. The full benchmark suite lives in ``benchmarks/``.

Options::

    python -m repro              # quick tables (seconds)
    python -m repro --full       # three repeats per cell, as in benchmarks/
    python -m repro --seed 42    # different background-load seed
"""

from __future__ import annotations

import argparse

from .bench import (
    PAPER_SIZES,
    ascii_chart,
    bullet_figure2,
    comparison_lines,
    make_rig,
    nfs_figure3,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Bullet-vs-NFS comparison "
                    "(van Renesse et al., ICDCS 1989).",
    )
    parser.add_argument("--full", action="store_true",
                        help="three repeats per cell instead of one")
    parser.add_argument("--seed", type=int, default=1989,
                        help="experiment seed (default: 1989)")
    args = parser.parse_args(argv)
    repeats = 3 if args.full else 1

    print(f"building the 1989 testbed (seed {args.seed})...\n")
    rig = make_rig(seed=args.seed)
    fig2 = bullet_figure2(rig, PAPER_SIZES, repeats)
    fig3 = nfs_figure3(rig, PAPER_SIZES, repeats)

    print(fig2.render_delay())
    print()
    print(fig2.render_bandwidth())
    print()
    print(fig3.render_delay())
    print()
    print(fig3.render_bandwidth())
    print()
    print(comparison_lines(fig2, fig3))
    print()
    print(ascii_chart(
        {"Bullet READ": fig2, "NFS READ": fig3},
        {"Bullet READ": "READ", "NFS READ": "READ"},
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
