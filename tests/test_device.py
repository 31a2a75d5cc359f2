"""Tests for the surrogate device and voltage-grid datasets."""

import functools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kanc import device
from kanc.device import (
    bulk_charge,
    convert_charge,
    convert_current,
    derivative_stencil,
    generate_dataset,
    load_dataset,
    save_dataset,
    surrogate_fields,
)


def oracle_drive(v_g):
    """Straight reimplementation of the gate-drive closed form."""
    s = 1.2 * 0.0258
    return s * math.log(1.0 + math.exp((v_g - 0.25) / s))


class TestSurrogate:
    def test_zero_bias_current_is_exactly_zero(self):
        assert surrogate_fields(0.0, 0.0)["I_D"] == 0.0

    def test_current_matches_closed_form(self):
        """Module output equals the independent scalar reimplementation."""
        for v_d, v_g in [(0.1, 0.3), (0.4, 0.4), (0.82, 0.82), (0.7, 0.2)]:
            f = oracle_drive(v_g)
            expected = 5e-3 * f * f * math.tanh(v_d / (0.08 + 0.6 * f))
            assert_allclose(surrogate_fields(v_d, v_g)["I_D"], expected,
                            rtol=1e-14)

    def test_drive_below_threshold(self):
        """At the threshold voltage the knee value is scale * ln 2."""
        expected = 1.2 * 0.0258 * math.log(2.0)
        assert_allclose(device.gate_drive(0.25), expected, rtol=1e-14)

    def test_source_charge_at_full_gate(self):
        """Q_S at the top corner equals -60 times the gate drive there."""
        expected = -60.0 * oracle_drive(0.82)
        assert_allclose(surrogate_fields(0.3, 0.82)["Q_S"], expected,
                        rtol=1e-14)
        # drive saturates near v_g - v_th, so the value sits just past -34.2
        assert abs(expected + 34.2) < 1e-6

    def test_charges_are_negative_in_strong_inversion(self):
        p = surrogate_fields(0.5, 0.6)
        assert p["Q_S"] < 0 and p["Q_D"] < 0
        assert p["Q_G"] > 0

    def test_gate_charge_closes_the_budget(self):
        """Q_G is built as -1.5 (Q_S + Q_D), so the bulk term is half the
        source+drain sum."""
        p = surrogate_fields(0.37, 0.55)
        qb = bulk_charge(p["Q_D"], p["Q_S"], p["Q_G"])
        assert_allclose(qb, 0.5 * (p["Q_D"] + p["Q_S"]), rtol=1e-14)

    def test_current_monotone_in_gate_bias(self):
        vg = np.linspace(0.0, 0.82, 165)
        i = surrogate_fields(0.4, vg)["I_D"]
        assert np.all(np.diff(i) > 0)

    def test_current_nonnegative_everywhere(self):
        ds = generate_dataset(10)
        assert ds.fields["I_D"].min() >= 0.0


class TestConversions:
    def test_current_head_is_log_scale(self):
        assert_allclose(convert_current(np.log(1e-5)), 1e-5, rtol=1e-12)

    def test_charge_head_scale(self):
        assert_allclose(convert_charge(-34.2), -34.2e-18, rtol=1e-15)


class TestDatasetSplits:
    # (step, train, test) for the published grid partition
    EXPECTED = [(5, 27225, 0), (10, 6889, 20336), (20, 1764, 25461),
                (50, 289, 26936)]

    @pytest.mark.parametrize("step,n_train,n_test", EXPECTED)
    def test_split_counts(self, step, n_train, n_test):
        ds = generate_dataset(step)
        assert ds.train_count == n_train
        assert ds.test_count == n_test
        assert ds.train_count + ds.test_count == 165 * 165

    def test_train_points_on_lattice(self):
        """Every train point sits on the coarse lattice; no test point does."""
        ds = generate_dataset(20)
        for v in ds.train_vd_axis:
            assert round(v * 1000) % 20 == 0
        mask = ds.train_mask
        vd, vg = np.meshgrid(ds.vd_axis, ds.vg_axis, indexing="ij")
        d_mv = np.rint(vd * 1000).astype(int)
        g_mv = np.rint(vg * 1000).astype(int)
        on_lattice = (d_mv % 20 == 0) & (g_mv % 20 == 0)
        assert np.array_equal(mask, on_lattice)

    def test_fifty_mv_axis_stops_at_800(self):
        ds = generate_dataset(50)
        assert_allclose(ds.train_vd_axis[-1], 0.80, rtol=0, atol=1e-12)
        assert ds.train_vd_axis.size == 17

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(7)

    def test_train_inputs_row_major(self):
        ds = generate_dataset(50)
        xy = ds.train_inputs()
        assert xy.shape == (289, 2)
        # V_D varies slowest
        assert_allclose(xy[:17, 0], np.zeros(17), rtol=0, atol=0)
        assert_allclose(xy[:17, 1], ds.train_vg_axis, rtol=0, atol=0)

    def test_bulk_charge_identity_on_grid(self):
        ds = generate_dataset(10)
        qb = bulk_charge(ds.fields["Q_D"], ds.fields["Q_S"], ds.fields["Q_G"])
        ref = 0.5 * (ds.fields["Q_D"] + ds.fields["Q_S"])
        assert np.max(np.abs(qb - ref)) < 1e-12


class TestGridDerivative:
    """The first-derivative stencil applied along the train sub-grid:
    ``d @ values`` along V_D (rows), ``values @ d.T`` along V_G."""

    def test_constant_field_derivative_is_zero(self):
        d = derivative_stencil(17, 0.05)
        out = np.full((17, 17), 3.3) @ d.T
        assert_allclose(out, 0.0, rtol=0, atol=1e-12)

    def test_linear_ramp_slope_one(self):
        ds = generate_dataset(50)
        d = derivative_stencil(17, 0.05)
        ramp = np.tile(ds.train_vg_axis, (17, 1))
        assert_allclose(ramp @ d.T, 1.0, rtol=0, atol=1e-9)
        assert_allclose(d @ ramp, 0.0, rtol=0, atol=1e-9)

    def test_matches_analytic_transconductance(self):
        """FD transconductance at (0.4, 0.4) on the 5 mV grid is within 1e-3
        of the hand-derived closed-form derivative."""
        ds = generate_dataset(5)
        values = ds.train_field("I_D")
        gm = values @ derivative_stencil(values.shape[1], 0.005).T
        i = list(np.rint(ds.train_vd_axis * 1000).astype(int)).index(400)
        j = list(np.rint(ds.train_vg_axis * 1000).astype(int)).index(400)
        s = 1.2 * 0.0258
        u = (0.4 - 0.25) / s
        f = s * math.log(1 + math.exp(u))
        fp = 1.0 / (1.0 + math.exp(-u))
        den = 0.08 + 0.6 * f
        th = math.tanh(0.4 / den)
        sech2 = 1.0 - th * th
        analytic = 5e-3 * (2 * f * fp * th
                           + f * f * sech2 * (-0.4 * 0.6 * fp / den**2))
        assert abs(gm[i, j] - analytic) / abs(analytic) < 1e-3

    def test_stencil_twice_is_exact_on_a_cubic(self):
        """Two central passes are the second difference over 2h, which is
        exact on a cubic wherever both passes use central rows."""
        ds = generate_dataset(20)
        d = derivative_stencil(ds.train_vd_axis.size, 0.02)
        v = ds.train_vd_axis
        twice = d @ (d @ v**3)
        assert_allclose(twice[2:-2], 6.0 * v[2:-2], rtol=0, atol=1e-9)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            derivative_stencil(2, 0.1)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_dataset(50)
        path = tmp_path / "grid.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.step_mv == 50
        assert back.train_count == ds.train_count
        for name in device.FIELD_NAMES:
            assert np.array_equal(back.fields[name], ds.fields[name])

    def test_header_and_row_count(self, tmp_path):
        ds = generate_dataset(50)
        path = tmp_path / "grid.csv"
        save_dataset(ds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "V_D,V_G,I_D,Q_D,Q_S,Q_G,split"
        assert len(lines) == 1 + 165 * 165

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    @staticmethod
    def edited(tmp_path, edit):
        """A 50 mV dataset file with its data lines passed through ``edit``."""
        path = tmp_path / "grid.csv"
        save_dataset(generate_dataset(50), path)
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + edit(lines)) + "\n")
        return path

    def test_rejects_missing_points(self, tmp_path):
        path = self.edited(tmp_path, lambda ls: ls[:50] + ls[150:])
        with pytest.raises(ValueError, match="27125 of its 27225 points"):
            load_dataset(path)

    def test_rejects_duplicate_point(self, tmp_path):
        path = self.edited(tmp_path, lambda ls: ls + [ls[7]])
        with pytest.raises(ValueError, match="more rows than"):
            load_dataset(path)
        path = self.edited(tmp_path, lambda ls: ls[:-1] + [ls[7]])
        with pytest.raises(ValueError, match="appears 2 times"):
            load_dataset(path)

    def test_rejects_short_row(self, tmp_path):
        path = self.edited(tmp_path,
                           lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0]])
        with pytest.raises(ValueError, match="does not hold 7 columns"):
            load_dataset(path)

    def test_rejects_non_finite_value(self, tmp_path):
        path = self.edited(tmp_path, lambda ls: [ls[0].replace(
            ls[0].split(",")[2], "nan", 1)] + ls[1:])
        with pytest.raises(ValueError, match="not finite"):
            load_dataset(path)

    def test_rejects_stray_quote(self, tmp_path):
        """An unclosed quote that runs past the csv field limit is a
        ValueError too, not the csv module's own error."""
        path = self.edited(tmp_path, lambda ls: ['"' + ls[0]] + ls[1:])
        with pytest.raises(ValueError, match="line"):
            load_dataset(path)

    def test_rejects_split_that_contradicts_the_lattice(self, tmp_path):
        path = self.edited(tmp_path, lambda ls: [ls[0].replace("train", "test")]
                           + ls[1:])
        with pytest.raises(ValueError, match="wrong split"):
            load_dataset(path)


@functools.lru_cache(maxsize=None)
def _saved_lines() -> tuple:
    """The lines (as bytes, without their ends) of one saved 50 mV
    dataset, written once per session."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        save_dataset(generate_dataset(50), path)
        with open(path, "rb") as fh:
            return tuple(fh.read().splitlines())


class TestPersistenceProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(device.TRAIN_STEPS_MV), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.sampled_from(device.FIELD_NAMES),
                              st.integers(0, 165 * 165 - 1),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=8))
    def test_round_trip_is_bitwise(self, step, seed, specials):
        """Field values of any sign and magnitude, subnormals and -0.0
        among them, come back bit for bit with the same split."""
        rng = np.random.default_rng(seed)
        ds = generate_dataset(step)
        for name in device.FIELD_NAMES:
            ds.fields[name] = (rng.normal(size=(165, 165))
                               * 10.0 ** rng.integers(-320, 300, size=(165, 165)))
        for name, at, value in specials:
            ds.fields[name].flat[at] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.csv")
            save_dataset(ds, path)
            back = load_dataset(path)
        assert back.step_mv == step
        assert np.array_equal(back.train_mask, ds.train_mask)
        for name in device.FIELD_NAMES:
            assert np.array_equal(back.fields[name].view(np.int64),
                                  ds.fields[name].view(np.int64)), name

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["drop", "duplicate", "truncate", "nul", "quote",
                            "utf8", "header_only"]), st.data())
    def test_fuzzed_file_raises_only_value_error(self, edit, data):
        """A line dropped, duplicated or truncated, a NUL byte, a stray
        quote or an invalid UTF-8 sequence anywhere, or a file of only the
        header, is rejected with ValueError (so ``kanc eval --data`` exits
        2), never another exception."""
        lines = list(_saved_lines())
        at = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(0, len(lines[at]) - 1))
        if edit == "drop":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "truncate":
            lines[at] = lines[at][:cut]
        elif edit == "header_only":
            lines = lines[:1]
        else:
            junk = {"nul": b"\x00", "quote": b'"',
                    "utf8": data.draw(st.sampled_from(
                        [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"]))}[edit]
            lines[at] = lines[at][:cut] + junk + lines[at][cut:]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.csv")
            with open(path, "wb") as fh:
                fh.write(b"\n".join(lines) + b"\n")
            with pytest.raises(ValueError):
                load_dataset(path)
