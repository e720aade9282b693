"""A fixed piece of work that shows how fast the machine runs right now.

The machines this benchmark runs on are shared, and their speed drifts:
the same operation can take half as long again from one five-second
spell to the next, and CPU time follows wall time, so the drift is in
how fast the CPU runs, not in scheduling.  Timing this kernel right
before and after each operation measures the drift where it happens,
and run.py divides each operation's time by the slowdown it shows
(raised to the workload's elasticity), so that times read as if taken
on a machine running at reference speed.

The kernel is an index loop over the characters of a string, as the
model browser's lexers run; Python loops like it slow the most when the
machine does.  It does not use ctxcheck, so a change to ctxcheck cannot
change it.
"""

from time import perf_counter

# Kernel seconds on the reference machine: scaled times read as if every
# operation ran where the kernel takes this long.
REFERENCE_S = 0.0025

_TEXT = "".join(
    f'<div class="c{i % 97}" id="x{i}">Item {i} &amp; more →</div>\n'
    f"<p>{'lorem ipsum dolor ' * 6}</p>\n" for i in range(180))[:30_000]


def kernel(text: str = _TEXT) -> int:
    n = len(text)
    i = quotes = 0
    while i < n:
        ch = text[i]
        if ch in "\"'&<":
            quotes += 1
        i += 1
    return quotes


def slowdown() -> float:
    """How many times slower than the reference machine the kernel runs
    now."""
    start = perf_counter()
    kernel()
    return (perf_counter() - start) / REFERENCE_S
