"""Paper-style table rendering (S14).

The paper reports each experiment twice: delay in msec (figure part a)
and bandwidth in Kbytes/sec (part b). These helpers render exactly that
shape from measured results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import bandwidth_kb_per_sec, fmt_size, to_msec

__all__ = ["MeasurementTable", "ascii_chart", "comparison_lines"]


@dataclass
class MeasurementTable:
    """Measured delays (seconds) per (file size, column)."""

    title: str
    columns: list
    # size -> {column: seconds}
    rows: dict = field(default_factory=dict, init=False)

    def record(self, size: int, column: str, seconds: float) -> None:
        if column not in self.columns:
            raise ValueError(f"unknown column {column!r}")
        self.rows.setdefault(size, {})[column] = seconds

    def delay(self, size: int, column: str) -> float:
        return self.rows[size][column]

    def bandwidth(self, size: int, column: str) -> float:
        return bandwidth_kb_per_sec(size, self.rows[size][column])

    # ------------------------------------------------------------ render

    def render_delay(self) -> str:
        """Part (a): delay in msec."""
        return self._render(
            f"{self.title} — Delay (msec)",
            lambda size, col: f"{to_msec(self.rows[size][col]):.1f}",
        )

    def render_bandwidth(self) -> str:
        """Part (b): bandwidth in Kbytes/sec."""
        return self._render(
            f"{self.title} — Bandwidth (Kbytes/sec)",
            lambda size, col: f"{self.bandwidth(size, col):.1f}",
        )

    def _render(self, title: str, cell) -> str:
        width = 14
        header = "File Size".ljust(width) + "".join(
            col.rjust(width) for col in self.columns
        )
        lines = [title, "=" * len(header), header, "-" * len(header)]
        for size in sorted(self.rows):
            line = fmt_size(size).ljust(width)
            for col in self.columns:
                if col in self.rows[size]:
                    line += cell(size, col).rjust(width)
                else:
                    line += "-".rjust(width)
            lines.append(line)
        return "\n".join(lines)


def ascii_chart(tables: dict, column_of: dict) -> str:
    """A bar chart of bandwidth per file size for several series.

    ``tables`` maps a series label to a :class:`MeasurementTable`;
    ``column_of`` maps the same label to the column to plot. Bars are
    scaled to the global maximum so series are visually comparable —
    the shape the paper's figures convey.
    """
    title = "Bandwidth vs file size (KB/s, log-size axis)"
    width = 56  # characters of the longest bar
    rows = []
    peak = 0.0
    for label, table in tables.items():
        column = column_of[label]
        for size in sorted(table.rows):
            if column in table.rows[size]:
                bandwidth = table.bandwidth(size, column)
                rows.append((size, label, bandwidth))
                peak = max(peak, bandwidth)
    if peak <= 0:
        return title + "\n(no data)"
    label_width = max(len(label) for _s, label, _b in rows) + 2
    lines = [title, "=" * (width + label_width + 22)]
    last_size = None
    for size, label, bandwidth in sorted(rows, key=lambda r: (r[0], r[1])):
        if size != last_size:
            lines.append(fmt_size(size))
            last_size = size
        bar = "#" * max(int(bandwidth / peak * width), 1)
        lines.append(f"  {label:<{label_width}}{bar} {bandwidth:8.1f}")
    return "\n".join(lines)


def comparison_lines(bullet: MeasurementTable, nfs: MeasurementTable) -> str:
    """The §4–§5 claims, checked numerically against the Fig. 2 and
    Fig. 3 tables (their READ, CREATE+DEL and CREATE columns)."""
    bullet_read = nfs_read = "READ"
    bullet_write, nfs_write = "CREATE+DEL", "CREATE"
    lines = ["Claim checks (paper §4/§5)", "=" * 60]
    sizes = sorted(set(bullet.rows) & set(nfs.rows))
    for size in sizes:
        ratio = nfs.delay(size, nfs_read) / bullet.delay(size, bullet_read)
        lines.append(
            f"C1 read speedup @ {fmt_size(size):<12} "
            f"Bullet {to_msec(bullet.delay(size, bullet_read)):9.1f} ms vs "
            f"NFS {to_msec(nfs.delay(size, nfs_read)):9.1f} ms "
            f"=> {ratio:4.1f}x"
        )
    big = max(sizes)
    # C2: "Although the Bullet file server stores the files on two disks,
    # for large files the bandwidth is ten times that of SUN NFS" — the
    # storing (write) bandwidths.
    lines.append(
        f"C2 large-file WRITE bandwidth ratio @ {fmt_size(big)}: "
        f"{bullet.bandwidth(big, bullet_write) / nfs.bandwidth(big, nfs_write):.1f}x"
        f" (read ratio: "
        f"{bullet.bandwidth(big, bullet_read) / nfs.bandwidth(big, nfs_read):.1f}x)"
    )
    for size in sizes:
        if size > 64 * 1024 - 1:
            lines.append(
                f"C3 Bullet WRITE bw {bullet.bandwidth(size, bullet_write):7.1f} "
                f"vs NFS READ bw {nfs.bandwidth(size, nfs_read):7.1f} KB/s "
                f"@ {fmt_size(size)} => "
                f"{'HOLDS' if bullet.bandwidth(size, bullet_write) > nfs.bandwidth(size, nfs_read) else 'FAILS'}"
            )
    if 64 * 1024 in nfs.rows and 1024 * 1024 in nfs.rows:
        for col in (nfs_read, nfs_write):
            bw64 = nfs.bandwidth(64 * 1024, col)
            bw1m = nfs.bandwidth(1024 * 1024, col)
            lines.append(
                f"C4 NFS {col}: 64KB {bw64:7.1f} vs 1MB {bw1m:7.1f} KB/s => "
                f"{'HOLDS (1MB slower)' if bw1m < bw64 else 'FAILS'}"
            )
    return "\n".join(lines)
