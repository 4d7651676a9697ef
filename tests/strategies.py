"""Hypothesis strategies shared by the generated tests.

`cases` draws a unimodular set with b of either sign, an odd or even N and
a lattice-aligned grid origin, with complex Gaussian noise signals on that
grid in cyclic mode.
"""

import numpy as np
from hypothesis import strategies as st

from saftkit.grid import Grid, Signal
from saftkit.params import make_params


@st.composite
def cases(draw, min_count=16, signals=1, seam_exact=False, off_centre=True):
    """(params, signals...) on one cyclic grid of min_count..97 nodes.

    seam_exact draws p so that the offset chirp completes a whole number of
    cycles per window (chirp_period_compatible), which identities that move
    mass across the cyclic seam need.  off_centre leaves out the centred
    origin.
    """
    b = draw(st.floats(0.25, 3.0)) * draw(st.sampled_from((1.0, -1.0)))
    a, d = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    n = draw(st.integers(min_count, 97))
    step = draw(st.floats(0.05, 0.5))
    p = (draw(st.integers(-3, 3)) * b / (n * step) if seam_exact
         else draw(st.floats(-1.0, 1.0)))
    params = make_params(a, b, (a * d - 1.0) / b, d, p, draw(st.floats(-1.0, 1.0)))
    offsets = st.integers(-n, n)
    offset = draw(offsets.filter(lambda k: k != 0) if off_centre else offsets)
    grid = Grid((offset - n // 2) * step, step, n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (params, *(Signal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                             "cyclic") for _ in range(signals)))
