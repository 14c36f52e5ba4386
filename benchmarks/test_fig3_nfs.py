"""E4/E5 — Figure 3: SUN NFS READ and CREATE, delay (a) and bandwidth
(b), for file sizes 1 byte … 1 Mbyte.

Measurement conditions of §4: Sun 3/50 client with local caching
disabled via lockf, Sun 3/180-class server with a 3 MB buffer cache and
one disk (write-through), shared departmental load on server and wire.
"""

from repro.bench import PAPER_SIZES, make_rig, nfs_figure3
from repro.units import KB, MB

from conftest import save_result


def test_fig3_nfs_read_and_create():
    table = nfs_figure3(make_rig(with_bullet=False), PAPER_SIZES, 3)
    save_result(
        "fig3_nfs",
        table.render_delay() + "\n\n" + table.render_bandwidth(),
    )

    # Shape assertions from the paper. Sub-KB NFS operations are
    # dominated by synchronous metadata disk writes whose exact cost
    # varies with arm position, so allow 15% jitter.
    for column in ("READ", "CREATE"):
        delays = [table.delay(size, column) for size in PAPER_SIZES]
        for earlier, later in zip(delays, delays[1:]):
            assert earlier <= later * 1.15, f"{column} delay not monotone"
    # The paper's explicit observation (C4): "reading and creating
    # 1 Mbyte NFS files result in lower bandwidths than reading and
    # creating 64 Kbyte NFS files."
    assert table.bandwidth(1 * MB, "READ") < table.bandwidth(64 * KB, "READ")
    assert table.bandwidth(1 * MB, "CREATE") < table.bandwidth(64 * KB, "CREATE")
    # Synchronous per-block writes make CREATE much slower than READ.
    assert table.delay(64 * KB, "CREATE") > 2 * table.delay(64 * KB, "READ")
