"""circle_nodes reads one shared table of unit roots per node count."""

import numpy as np
import pytest

from lppdist import ContourConfig, circle_nodes

RADII = ContourConfig.for_q("1/2").r2, ContourConfig.for_q("1/2").r1
COUNTS = [2**k for k in range(4, 14)] + [24, 300]


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("count", COUNTS)
def test_nodes_are_the_direct_exponential_bit_for_bit(radius, count):
    direct = radius * np.exp(1j * (2 * np.pi * np.arange(count) / count))
    assert circle_nodes(radius, count).tobytes() == direct.tobytes()


def test_writing_into_returned_nodes_leaves_the_table_alone():
    radius, count = RADII[0], 64
    first = circle_nodes(radius, count)
    expected = first.copy()
    first[:] = 0.0
    assert circle_nodes(radius, count).tobytes() == expected.tobytes()
    assert circle_nodes(1.0, count)[1] != 0.0
