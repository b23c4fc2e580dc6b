import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ranging_reference as reference
from pseudolat.geometry import CircularTrajectory, Position3, WaypointSeries, sample_trajectory
from pseudolat.ranging import (
    MeasurementMatrix,
    NoiseModel,
    Obstacle,
    _distances,
    _ranges,
    collect_measurements,
    export_dataset,
    load_dataset,
    los_blocked,
)

NOISELESS = NoiseModel(sigma0=0.0, eta=0.0, nlos_bias_mean=0.0)


def box(lo, hi):
    return Obstacle(Position3(*lo), Position3(*hi))


class TestLosBlocked:
    def test_segment_through_box(self):
        assert los_blocked(Position3(0, 0, 100), Position3(0, 0, 0), [box((-1, -1, 40), (1, 1, 60))])

    def test_disjoint_box(self):
        assert not los_blocked(
            Position3(0, 0, 100), Position3(0, 0, 0), [box((10, 10, 40), (12, 12, 60))]
        )

    def test_touching_corner_counts_as_blocked(self):
        blocked = los_blocked(
            Position3(1, 1, 100), Position3(1, 1, 0), [box((-1, -1, 40), (1, 1, 60))]
        )
        assert blocked

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError):
            los_blocked(Position3(1, 2, 3), Position3(1, 2, 3), [])

    def test_no_obstacles(self):
        assert not los_blocked(Position3(0, 0, 100), Position3(5, 5, 0), [])


def ranges_at(d_true: float, n: int, model: NoiseModel, seed: int, blocked: bool):
    """One array call of ``_ranges``: n anchors straight above the target
    at height ``d_true``; a slab between them blocks every sample."""
    anchor_p = np.tile([0.0, 0.0, d_true], (n, 1))
    target_p = np.zeros((n, 3))
    slab = [box((-1, -1, 0.25 * d_true), (1, 1, 0.75 * d_true))] if blocked else []
    d, los = _ranges(anchor_p, target_p, slab, model, seed)
    assert np.all(los != blocked)
    return d


class TestNoiseDraws:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(0)
        anchor_p = rng.uniform(-100, 100, (50, 3)) + [0.0, 0.0, 300.0]
        target_p = rng.uniform(-100, 100, (50, 3))
        d, _ = _ranges(anchor_p, target_p, [], NOISELESS, 0)
        assert np.array_equal(d, _distances(anchor_p, target_p))
        assert np.all(ranges_at(120.0, 10, NOISELESS, 0, blocked=True) == 120.0)

    def test_std_matches_affine_model(self):
        # Monte-Carlo estimate of sigma0 + eta*d at d = 200.
        model = NoiseModel(sigma0=1.0, eta=0.01, nlos_bias_mean=0.0)
        d = ranges_at(200.0, 100_000, model, 42, blocked=False)
        assert abs(np.std(d - 200.0) - 3.0) < 0.05

    def test_nlos_bias_mean(self):
        # Law of large numbers on the exponential bias, Gaussian part off.
        model = NoiseModel(sigma0=0.0, eta=0.0, nlos_bias_mean=5.0)
        d = ranges_at(120.0, 100_000, model, 43, blocked=True)
        assert abs(np.mean(d) - (120.0 + 5.0)) < 0.1

    def test_nlos_bias_nonnegative(self):
        model = NoiseModel(sigma0=0.0, eta=0.0, nlos_bias_mean=7.0)
        d = ranges_at(50.0, 5_000, model, 44, blocked=True)
        assert np.all(d >= 50.0)


def circle_60():
    spec = CircularTrajectory(center=Position3(0, 0, 100), radius=50, angular_speed=2 * math.pi / 60)
    return spec, sample_trajectory(spec, 0.0, 1.0, 60)


class TestCollect:
    def test_static_noiseless_matches_geometry(self, static_series):
        _, anchor = circle_60()
        target = Position3(20, -10, 0)
        meas = collect_measurements(anchor, static_series(anchor.t, target), [], NOISELESS, 0)
        for k, m in enumerate(meas):
            d = np.linalg.norm(anchor.p[k] - target.as_array())
            assert m.d_meas == pytest.approx(d, abs=1e-12)
            assert m.los

    def test_moving_target_noiseless(self):
        from pseudolat.geometry import WaypointSeries

        _, anchor = circle_60()
        v = np.array([0.5, 0.2, 0.0])
        start = np.array([5.0, 5.0, 0.0])
        target_p = start[None, :] + anchor.t[:, None] * v[None, :]
        meas = collect_measurements(anchor, WaypointSeries(anchor.t, target_p), [], NOISELESS, 0)
        for k, m in enumerate(meas):
            assert m.d_meas == pytest.approx(np.linalg.norm(anchor.p[k] - target_p[k]), abs=1e-12)

    def test_mismatched_grids_rejected(self, static_series):
        _, anchor = circle_60()
        bad = static_series(anchor.t + 0.5, Position3(0, 0, 0))
        with pytest.raises(ValueError):
            collect_measurements(anchor, bad, [], NOISELESS, 0)

    def test_determinism(self, static_series):
        _, anchor = circle_60()
        target = static_series(anchor.t, Position3(30, 0, 0))
        model = NoiseModel(sigma0=1.0, eta=0.01, nlos_bias_mean=5.0)
        a = collect_measurements(anchor, target, [], model, 99)
        b = collect_measurements(anchor, target, [], model, 99)
        assert [m.d_meas for m in a] == [m.d_meas for m in b]

    def test_obstacle_stripe_matches_oracle_and_is_contiguous(self, static_series):
        _, anchor = circle_60()
        target = Position3(60, 0, 0)
        wall = box((0, -10, 0), (10, 10, 70))
        meas = collect_measurements(anchor, static_series(anchor.t, target), [wall], NOISELESS, 0)
        # Independent per-sample oracle: brute-force points along each segment.
        lo, hi = np.array([0.0, -10.0, 0.0]), np.array([10.0, 10.0, 70.0])
        flags = []
        for k in range(len(anchor)):
            s = np.linspace(0.0, 1.0, 20_001)[:, None]
            pts = anchor.p[k][None, :] * (1 - s) + target.as_array()[None, :] * s
            inside = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)
            flags.append(bool(np.any(inside)))
        assert [not m.los for m in meas] == flags
        blocked_idx = [k for k, m in enumerate(meas) if not m.los]
        assert blocked_idx, "scenario should produce a blocked arc"
        assert blocked_idx == list(range(blocked_idx[0], blocked_idx[-1] + 1))

    def test_nlos_positivity_with_gaussian_disabled(self, static_series):
        _, anchor = circle_60()
        target = Position3(60, 0, 0)
        wall = box((0, -10, 0), (10, 10, 70))
        model = NoiseModel(sigma0=0.0, eta=0.0, nlos_bias_mean=6.0)
        meas = collect_measurements(anchor, static_series(anchor.t, target), [wall], model, 3)
        for k, m in enumerate(meas):
            d_true = np.linalg.norm(anchor.p[k] - target.as_array())
            if not m.los:
                assert m.d_meas >= d_true


def assert_matches_reference(anchor_p, target_p, obstacles, model, seed):
    """The array path and the per-sample reference agree bit for bit."""
    t = np.arange(len(anchor_p), dtype=np.float64)
    anchor, target = WaypointSeries(t, anchor_p), WaypointSeries(t, target_p)
    want = reference.collect_measurements(anchor, target, obstacles, model, seed)
    d, los = _ranges(anchor.p, target.p, obstacles, model, seed)
    assert np.array_equal(d.view(np.uint64), np.array([m.d_meas for m in want]).view(np.uint64))
    assert los.tolist() == [m.los for m in want]
    assert collect_measurements(anchor, target, obstacles, model, seed) == want
    for k in range(len(t)):
        a, b = anchor.position(k), target.position(k)
        assert los_blocked(a, b, obstacles) is reference.los_blocked(a, b, obstacles)
    return los


# Anchor k hovers at (k, 0, 10) straight above target k at (k, 0, 0), so
# d_x = d_y = 0 on every segment.
_COLUMN = np.column_stack([np.arange(7.0), np.zeros(7), np.full(7, 10.0)])
_GROUND = _COLUMN * [1.0, 1.0, 0.0]
_FIRST_TWO = box((-0.5, -1, 3), (1.5, 1, 5))
_LAST = box((5.5, -1, 3), (7, 1, 5))
_FACE = box((3, -1, 3), (4, 1, 5))  # segments 3 and 4 lie in its x faces
_ALL = box((-1, -1, 2), (7, 1, 8))
# (model, seed) pairs
_MODELS = [
    (NOISELESS, 0),  # d_meas is d_true, bit for bit
    (NoiseModel(sigma0=1.0, eta=0.01, nlos_bias_mean=5.0), 7),
    (NoiseModel(sigma0=0.5, eta=0.0, nlos_bias_mean=0.0), 8),
    # sigma well above the ranges: many draws clamp to 0
    (NoiseModel(sigma0=30.0, eta=0.5, nlos_bias_mean=2.0), 9),
]


class TestArrayRanges:
    @pytest.mark.parametrize("model, seed", _MODELS)
    @pytest.mark.parametrize(
        "obstacles, blocked",
        [
            ([], []),
            ([_FIRST_TWO, _LAST], [0, 1, 6]),
            ([_FACE], [3, 4]),
            ([_FIRST_TWO, _FACE, _LAST], [0, 1, 3, 4, 6]),
            ([_ALL, _LAST], list(range(7))),
        ],
    )
    def test_vertical_segments_match_reference(self, model, seed, obstacles, blocked):
        los = assert_matches_reference(_COLUMN, _GROUND, obstacles, model, seed)
        assert np.flatnonzero(~los).tolist() == blocked

    @pytest.mark.parametrize("model, seed", _MODELS)
    def test_circle_with_wall_matches_reference(self, static_series, model, seed):
        _, anchor = circle_60()
        target = static_series(anchor.t, Position3(60, 0, 0))
        wall = box((0, -10, 0), (10, 10, 70))
        los = assert_matches_reference(anchor.p, target.p, [wall], model, seed)
        assert 0 < np.count_nonzero(~los) < 60

    def test_slanted_segment_touching_an_edge_is_blocked(self):
        # (-1, 0, 2) -> (1, 0, 0) passes through (0, 0, 1), the box's lower x-z edge.
        edge = box((0, -1, 1), (1, 1, 2))
        los = assert_matches_reference(
            np.array([[-1.0, 0.0, 2.0]]), np.array([[1.0, 0.0, 0.0]]), [edge], *_MODELS[1]
        )
        assert not los[0]

    @pytest.mark.parametrize("obstacles", [[], [box((-1, -1, 1), (1, 1, 2))]])
    def test_coincident_sample_rejected(self, obstacles):
        anchor_p = np.array([[0.0, 0.0, 5.0], [3.0, 4.0, 0.0], [1.0, 0.0, 5.0]])
        target_p = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="anchor and target must not coincide"):
            _ranges(anchor_p, target_p, obstacles, *_MODELS[1])

    @pytest.mark.parametrize("side", ["anchor", "target"])
    def test_non_finite_position_rejected(self, side):
        # A linear target far enough out overflows to inf late in a revolution.
        anchor_p = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]])
        target_p = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        {"anchor": anchor_p, "target": target_p}[side][1, 0] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            _ranges(anchor_p, target_p, [], *_MODELS[1])


@st.composite
def ranging_cases(draw):
    """Paths and boxes on a grid, so that segments parallel to an axis,
    segments through box faces and edges, and blocked runs of every shape
    are common; anchors fly above the targets, so no sample coincides. A
    non-integer grid step makes the distances inexact."""
    n = draw(st.integers(1, 24))
    xy = st.integers(-6, 6)
    anchor_p = np.array(
        [[draw(xy), draw(xy), draw(st.integers(6, 12))] for _ in range(n)], dtype=np.float64
    )
    if draw(st.booleans()):
        target_p = anchor_p * [1.0, 1.0, 0.0]  # straight below the anchor
    else:
        target_p = np.array(
            [[draw(xy), draw(xy), draw(st.integers(0, 5))] for _ in range(n)], dtype=np.float64
        )
    obstacles = []
    for _ in range(draw(st.integers(0, 4))):
        lo = [draw(st.integers(-6, 5)), draw(st.integers(-6, 5)), draw(st.integers(0, 11))]
        size = [draw(st.integers(1, 8)) for _ in range(3)]
        obstacles.append(box(lo, [a + b for a, b in zip(lo, size)]))
    if draw(st.integers(0, 7)) == 0:
        # a slab between the anchors' and the targets' heights blocks every sample
        obstacles.append(box((-7, -7, 5), (7, 7, 6)))
    step = draw(st.sampled_from([1.0, 0.37, 2.9]))
    anchor_p, target_p = step * anchor_p, step * target_p
    obstacles = [
        box(step * o.min_corner.as_array(), step * o.max_corner.as_array()) for o in obstacles
    ]
    model = NoiseModel(
        sigma0=draw(st.sampled_from([0.0, 0.5, 1.0, 30.0])),
        eta=draw(st.sampled_from([0.0, 0.01, 0.5])),
        nlos_bias_mean=draw(st.sampled_from([0.0, 5.0])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return anchor_p, target_p, obstacles, model, seed


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ranging_cases())
def test_array_ranges_match_reference(case):
    assert_matches_reference(*case)


class TestExport:
    def _matrices(self, static_series):
        _, anchor = circle_60()
        target = Position3(17.25, -3.5, 0.0)
        model = NoiseModel(sigma0=1.0, eta=0.01, nlos_bias_mean=5.0)
        d, los = _ranges(anchor.p, static_series(anchor.t, target).p, [], model, 11)
        rows = np.column_stack([anchor.p, d])
        return [
            MeasurementMatrix(rows=rows[:30], los=los[:30], revolution=0, label=target),
            MeasurementMatrix(rows=rows[30:], los=los[30:], revolution=1),
        ]

    def test_file_shape(self, tmp_path, static_series):
        mats = self._matrices(static_series)
        out = tmp_path / "dataset.csv"
        export_dataset(mats, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "rev,row,x,y,z,d,los,label_x,label_y,label_z"
        assert len(lines) == 1 + 60
        assert lines[31].startswith("1,0,") and lines[31].endswith(",,,")

    def test_round_trip_bit_exact(self, tmp_path, static_series):
        mats = self._matrices(static_series)
        out = tmp_path / "dataset.csv"
        export_dataset(mats, out)
        back = load_dataset(out)
        assert len(back) == len(mats)
        for a, b in zip(mats, back):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.los, b.los)
            assert a.revolution == b.revolution
            assert a.label == b.label

    def test_unlabelled_matrix_round_trip_without_nan(self, tmp_path):
        mat = MeasurementMatrix(rows=np.array([[0.5, -1.25, 3.0, 7.125]]), los=np.array([True]), revolution=2)
        out = tmp_path / "dataset.csv"
        export_dataset([mat], out)
        assert "nan" not in out.read_text().lower()
        (back,) = load_dataset(out)
        assert back.label is None and back.revolution == 2
        assert np.array_equal(back.rows.view(np.uint64), mat.rows.view(np.uint64))
        assert np.array_equal(back.los, mat.los)

    def test_nan_labels_still_load_as_unlabelled(self, tmp_path):
        out = tmp_path / "dataset.csv"
        out.write_text("rev,row,x,y,z,d,los,label_x,label_y,label_z\n0,0,1.0,1.0,1.0,1.0,1,nan,nan,nan\n")
        (back,) = load_dataset(out)
        assert back.label is None

    def _three_rows(self, tmp_path) -> list[str]:
        rows = np.array([[1.0, 2.0, 3.0, 4.5], [1.5, 2.0, 3.0, 5.0], [2.0, 2.0, 3.0, 5.5]])
        mat = MeasurementMatrix(rows=rows, los=np.array([True, False, True]), revolution=0)
        out = tmp_path / "dataset.csv"
        export_dataset([mat], out)
        (back,) = load_dataset(out)
        assert np.array_equal(back.rows, rows)
        return out.read_text().split("\n")

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda lines: lines[:2] + lines[1:], "4 rows whose indices are not 0 .. 3"),  # row 0 twice
            (lambda lines: lines[:2] + lines[3:], "2 rows whose indices are not 0 .. 1"),  # row 1 dropped
            (lambda lines: lines[:2] + [lines[2] + ",7.0"] + lines[3:], "11 fields, expected 10"),
            (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], "9 fields, expected 10"),
        ],
        ids=["duplicated-row", "dropped-row", "eleventh-field", "ninth-field"],
    )
    def test_malformed_rows_rejected(self, tmp_path, edit, match):
        lines = edit(self._three_rows(tmp_path))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=match):
            load_dataset(bad)

    def test_empty_list_rejected_without_file(self, tmp_path):
        out = tmp_path / "nothing.csv"
        with pytest.raises(ValueError):
            export_dataset([], out)
        assert not out.exists()

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            MeasurementMatrix(rows=np.zeros((4, 3)), los=np.zeros(4, dtype=bool), revolution=0)
        with pytest.raises(ValueError):
            MeasurementMatrix(rows=np.zeros((4, 4)), los=np.zeros(3, dtype=bool), revolution=0)
