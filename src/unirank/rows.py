"""The package's fixed summed q-series, as data: ``ROWS`` maps a name to a
``series.Row``.  ``series.row_sum`` sums a row over a ring, and
``series.row_ints`` sums its ZZ image, the row at zeta = 1; a count series
is the ZZ image of its two-variable row, never a second formula.  The rows
of ``gflib``'s builders are named after them (``R`` for ``series_R``);
S1, S2 and ``grouped`` are ``growth``'s, and the last three the partition
families' tables less the empty partition.
"""

from .series import Row

ROWS = {
    "Uzeta": Row(1, [], [], [(-1, 1, 1), (-1, -1, 1)], []),
    "R": Row(0, [], [], [], [(1, 1, 1), (1, -1, 1)], quad=2),
    "Rbar": Row(0, [], [], [(-1, 0, 0)], [(1, 1, 1), (1, -1, 1)], quad=1),
    "Rbar2": Row(0, [], [], [(-1, 0, 0), (-1, 0, 1)],
                 [(1, 1, 2), (1, -1, 2)], step=2),
    "R2": Row(0, [], [], [(-1, 0, 1)], [(1, 1, 2), (1, -1, 2)], quad=2,
              step=2),
    "Ubar": Row(1, [], [(-1, 0, 1)], [(-1, 1, 1), (-1, -1, 1)],
                [(-1, 0, 2)]),
    "Ubar2": Row(2, [], [(-1, 0, 1), (-1, 0, 2)], [(-1, 1, 2), (-1, -1, 2)],
                 [(-1, 0, 3), (-1, 0, 4)], (1, 0, 2), step=2),
    "U2": Row(2, [], [(-1, 0, 1)], [(-1, 1, 2), (-1, -1, 2)], [(-1, 0, 3)],
              (1, 0, 2), step=2),
    "Ubar2_negq": Row(2, [(-1, 0, 1)], [(1, 0, 4)],
                      [(-1, 1, 2), (-1, -1, 2), (-1, 0, 3), (1, 0, 4)],
                      [(1, 0, 6, 4), (1, 0, 8, 4)], (1, 0, 2), step=2),
    "U2_negq": Row(2, [], [(1, 0, 1)], [(-1, 1, 2), (-1, -1, 2)],
                   [(1, 0, 3)], (1, 0, 2), step=2),
    "R_neg_zeta": Row(0, [], [], [], [(-1, 1, 1), (-1, -1, 1)], quad=2),
    "R_negzq_q2": Row(0, [], [], [], [(-1, 1, 3), (-1, -1, 1)], (1, 0, 2),
                      quad=4, step=2),
    "R2_negs": Row(0, [], [], [(1, 0, 1)], [(-1, 1, 2), (-1, -1, 2)],
                   (-1, 0, 1), quad=2, step=2),
    "omega_negq": Row(0, [], [(-1, 0, 1)] * 2, [], [(-1, 0, 3), (-1, 0, 3)],
                      (1, 0, 4), quad=4, step=2),
    # S1 = sum (q^2;q^2)_n (-1)^n q^n / (-q;q^2)_{n+1}
    "S1": Row(0, [], [(-1, 0, 1)], [(1, 0, 2)], [(-1, 0, 3)], (-1, 0, 1),
              step=2),
    # S2 = sum (q^2;q^4)_n (-1)^n q^{2n} / (-q;q^2)_{n+1}^2
    "S2": Row(0, [], [(-1, 0, 1)] * 2, [(1, 0, 2, 4)], [(-1, 0, 3)] * 2,
              (-1, 0, 2), step=2),
    # the grouped u2bar summands F_1 + F_2 + ...: F_1 = q^2 / (1 + q^2) and
    # F_(n+1) / F_n = q^2 (1 + q^2n)^2 / ((1 - q^(2n+1)) (1 + q^(2n+2)))
    "grouped": Row(2, [], [(-1, 0, 2)], [(-1, 0, 2)] * 2,
                   [(1, 0, 3), (-1, 0, 4)], (1, 0, 2), step=2),
    # sums over the largest part L: term_1 = q / (1 - zeta^-r q) and term_L
    # = term_(L-1) zeta^r q / (1 - zeta^-r q^L), each part weighing zeta^-r
    # and the largest also zeta^(r L), so zeta tracks the rank at r = 1
    "partition": Row(1, [], [(1, 0, 1)], [], [(1, 0, 2)]),
    "partition-with-rank": Row(1, [], [(1, -1, 1)], [], [(1, -1, 2)],
                               (1, 1, 1)),
    # each value carries at most one overline: 2 at the largest part, and
    # (1 + zeta^-1 q^k) / (1 - zeta^-1 q^k) at each smaller part k
    "overpartition": Row(1, [(-1, 0, 0)], [(1, -1, 1)], [(-1, -1, 1)],
                         [(1, -1, 2)], (1, 1, 1)),
}

__all__ = ["ROWS"]
