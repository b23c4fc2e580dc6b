import numpy as np
import pytest

from pseudolat.geometry import WaypointSeries


@pytest.fixture
def static_series():
    def make(t, position):
        return WaypointSeries(np.asarray(t, dtype=float), np.tile(position.as_array(), (len(t), 1)))

    return make
