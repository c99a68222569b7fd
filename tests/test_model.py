import numpy as np
import pytest

from daclear.model import build_model

from helpers import appendix_a, diamond, f2, ramp_fixture


class TestClearingRows:
    def test_flow_incidence_signs(self):
        inst = f2()
        model = build_model(inst)
        col = model.A_eq[:, model.flow_col["c1", 0]]
        # c1 runs R -> S: it leaves the source and enters the sink
        assert col[model.eq_row["R", 0]] == 1.0
        assert col[model.eq_row["S", 0]] == -1.0
        assert np.count_nonzero(col) == 2

    def test_segment_spans_rhs_and_bounds(self):
        inst = ramp_fixture()
        model = build_model(inst)
        for (a, t), r in model.eq_row.items():
            curve = inst.curves[a, t]
            assert model.b_eq[r] == -curve.min_net_demand
            for seg in curve.segments:
                assert model.A_eq[r, model.seg_col[seg.id]] == seg.quantity_span
        conn = inst.interconnectors[0]
        for t in range(inst.hours):
            j = model.flow_col[conn.id, t]
            assert (model.lb[j], model.ub[j]) == (conn.lower[t], conn.upper[t])
        seg_cols = list(model.seg_col.values())
        assert np.all(model.lb[seg_cols] == 0.0)
        assert np.all(model.ub[seg_cols] == 1.0)

    def test_no_connectors_no_flow_columns(self):
        model = build_model(appendix_a())
        assert model.flow_keys == ()
        assert model.A_in.shape == (0, model.n)
        assert model.A_eq.shape == (1, model.n)


class TestRampRows:
    def test_two_rows_per_connector_hour(self):
        inst = ramp_fixture()
        model = build_model(inst)
        assert model.ramp_keys == (
            ("c1", 0, "fwd"), ("c1", 0, "bwd"), ("c1", 1, "fwd"), ("c1", 1, "bwd"),
        )
        assert model.A_in.shape == (4, model.n)

    def test_coefficients_and_rhs(self):
        inst = ramp_fixture()
        conn = inst.interconnectors[0]
        model = build_model(inst)
        f0 = model.flow_col["c1", 0]
        f1 = model.flow_col["c1", 1]
        for r, (_, t, sense) in enumerate(model.ramp_keys):
            sgn = 1.0 if sense == "fwd" else -1.0
            row = model.A_in[r]
            if t == 0:
                assert row[f0] == sgn
                assert np.count_nonzero(row) == 1
                assert model.b_in[r] == conn.ramp_rate + sgn * conn.initial_flow
            else:
                assert row[f1] == sgn
                assert row[f0] == -sgn
                assert np.count_nonzero(row) == 2
                assert model.b_in[r] == conn.ramp_rate
        # ramp rate 6 from flow 18: fwd 24, bwd -12 at hour 0
        assert list(model.b_in[:2]) == [24.0, -12.0]

    def test_unramped_connectors_have_no_rows(self):
        model = build_model(diamond())
        assert model.ramp_keys == ()
        assert model.A_in.shape == (0, model.n)


class TestLayout:
    @pytest.mark.parametrize("make", [appendix_a, f2, ramp_fixture, diamond])
    def test_column_maps_follow_key_order(self, make):
        inst = make()
        model = build_model(inst)
        assert model.seg_ids == tuple(s.id for s in inst.segments)
        assert list(model.seg_col) == list(model.seg_ids)
        assert list(model.seg_col.values()) == list(range(len(model.seg_ids)))
        assert model.flow_keys == tuple(
            (c.id, t) for c in inst.interconnectors for t in range(inst.hours)
        )
        assert list(model.flow_col) == list(model.flow_keys)
        assert list(model.flow_col.values()) == list(
            range(len(model.seg_ids), model.n)
        )
        assert list(model.eq_row) == list(model.eq_keys)
        assert list(model.eq_row.values()) == list(range(len(model.eq_keys)))
        assert model.eq_keys == tuple(
            (a, t) for a in inst.areas for t in range(inst.hours)
        )
        for arr in (model.c, model.d, model.lb, model.ub):
            assert arr.shape == (model.n,)
