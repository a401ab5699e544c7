"""Frozen reference for the differential tests: the general 3-D
success-probability table f(a, b, c) and its entry distribution, as the
conditional-expectations fill used them before it kept one diagonal per
level (`superselect.construct.success_table`). The frozen scan kernel
and pair tables build on it, so the fill's tables are checked against
the full recurrence. Do not use it outside the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from superselect import InputError


@dataclass(frozen=True)
class SampleDistribution:
    """Entry distribution for width-p random submatrices.

    Entries are 0 with probability x (default (p-1)/p), so a designated
    unit row of I_p appears in a given row with probability
    alpha = x^(p-1) * (1-x).

    p is the width of the submatrix being modelled; x stays at the outer
    construction's value when p is an inner subset size.
    """

    p: int
    x: float = field(default=None)

    def __post_init__(self):
        if self.p < 1:
            raise InputError(f"level parameter must be >= 1, got {self.p}")
        if self.x is None:
            object.__setattr__(self, "x", (self.p - 1) / self.p)
        if not 0.0 <= self.x < 1.0:
            raise InputError(f"zero-probability x={self.x} outside [0, 1)")

    @property
    def alpha(self) -> float:
        return self.x ** (self.p - 1) * (1.0 - self.x)


class FTable:
    """Tabulated f(a, b, c): the probability that a rows drawn from
    `distribution` realize at least b of c designated unit patterns.

    Boundary values: f(a, 0, c) = 1; f(a, b, c) = 0 when b > a or b > c.
    Interior: f(a, b, c) = (1 - alpha*c) f(a-1, b, c)
                           + alpha*c f(a-1, b-1, c-1).
    """

    __slots__ = ("m", "width", "k_max", "distribution", "_tab")

    def __init__(self, m: int, width: int, k_max: int, distribution: SampleDistribution):
        if m < 0 or width < 1 or not 0 <= k_max <= width:
            raise InputError(
                f"bad f-table shape m={m}, width={width}, k_max={k_max}"
            )
        self.m = m
        self.width = width
        self.k_max = k_max
        self.distribution = distribution
        alpha = distribution.alpha
        # f(a, 0, c) = 1 for every a, so one b = 0 row serves all a; the
        # recurrence writes only rows b >= 1.
        ones = [1.0] * (width + 1)
        tab = [[ones] + [[0.0] * (width + 1) for _ in range(k_max)]
               for _ in range(m + 1)]
        for a in range(1, m + 1):
            prev = tab[a - 1]
            cur = tab[a]
            for b in range(1, k_max + 1):
                prev_b = prev[b]
                prev_b1 = prev[b - 1]
                cur_b = cur[b]
                for c in range(b, width + 1):
                    ac = alpha * c
                    cur_b[c] = (1.0 - ac) * prev_b[c] + ac * prev_b1[c - 1]
        self._tab = tab

    def f(self, a: int, b: int, c: int) -> float:
        if b <= 0:
            return 1.0
        if not 0 <= a <= self.m:
            raise InputError(f"a={a} outside [0, {self.m}]")
        if not 0 <= c <= self.width:
            raise InputError(f"c={c} outside [0, {self.width}]")
        if b > self.k_max:
            raise InputError(f"b={b} exceeds tabulated k_max={self.k_max}")
        if b > c or b > a:
            return 0.0
        return self._tab[a][b][c]
