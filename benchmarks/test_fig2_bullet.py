"""E2/E3 — Figure 2: Bullet server READ and CREATE+DELETE, delay (a)
and bandwidth (b), for file sizes 1 byte … 1 Mbyte.

Reproduces the measurement conditions of §4: warm server cache for
READ, write-through to both disks for CREATE, a normally loaded
Ethernet, and a dedicated server processor.
"""

from repro.bench import PAPER_SIZES, bullet_figure2, make_rig
from repro.units import KB, MB

from conftest import save_result


def test_fig2_bullet_read_and_create_delete():
    table = bullet_figure2(make_rig(), PAPER_SIZES, 3)
    save_result(
        "fig2_bullet",
        table.render_delay() + "\n\n" + table.render_bandwidth(),
    )

    # Shape assertions from the paper.
    # Delay grows with size (within 5% background-load jitter).
    for column in ("READ", "CREATE+DEL"):
        delays = [table.delay(size, column) for size in PAPER_SIZES]
        for earlier, later in zip(delays, delays[1:]):
            assert earlier <= later * 1.05, f"{column} delay not monotone"
    # Small reads land in the low-millisecond RPC regime.
    assert table.delay(1, "READ") < 5e-3
    # Large-file read bandwidth approaches the Amoeba bulk-RPC rate
    # (~650-700 KB/s on 10 Mb/s Ethernet with 68020s) — claim C5.
    big_read_bw = table.bandwidth(1 * MB, "READ")
    assert 550 < big_read_bw < 800
    # Read bandwidth keeps rising with size (no mid-range collapse).
    assert table.bandwidth(64 * KB, "READ") > 0.8 * table.bandwidth(1 * MB, "READ")
    # Creation is slower than reading (two disks, write-through).
    for size in PAPER_SIZES:
        assert table.delay(size, "CREATE+DEL") > table.delay(size, "READ")
