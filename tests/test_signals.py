import wave

import numpy as np
import pytest

import tfsqueeze as tq
from tfsqueeze.errors import FormatError, InvalidParameterError

from conftest import max_if_deviation_hz, write_wav


class TestSignalType:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            tq.Signal(np.array([]), 10.0)
        with pytest.raises(InvalidParameterError):
            tq.Signal(np.array([1.0, np.inf]), 10.0)
        with pytest.raises(InvalidParameterError):
            tq.Signal(np.array([1.0]), 0.0)
        with pytest.raises(InvalidParameterError):
            tq.Signal(np.array([1.0]), np.inf)
        for t0 in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameterError, match="t0_s"):
                tq.Signal(np.array([1.0]), 10.0, t0)

    def test_duration_is_derived(self):
        sig = tq.Signal(np.ones(64), 128.0)
        assert sig.duration_s == 0.5
        assert sig.times_s[0] == 0.0 and len(sig) == 64

    def test_samples_are_immutable(self):
        sig = tq.Signal(np.ones(4), 1.0)
        with pytest.raises(ValueError):
            sig.samples[0] = 0.0


class TestFmam:
    def test_shape(self, fmam):
        sig, _ = fmam
        assert len(sig) == 128 and sig.sample_rate_hz == 128.0

    def test_first_sample(self, fmam):
        # sin(0) + sin(2*pi*10*(-0.5)^3) = -sin(2.5*pi) = -1
        sig, _ = fmam
        assert abs(sig.samples[0] - (-1.0)) <= 1e-12

    def test_if_laws_at_known_points(self, fmam):
        _, model = fmam
        t = np.array(0.0)
        assert np.isclose(model.modes[0].if_hz(t), 40.0 + 4.0 * np.pi)
        assert np.isclose(model.modes[1].if_hz(np.array(0.5)), 10.0)

    def test_phase_if_consistency(self, fmam):
        _, model = fmam
        assert max_if_deviation_hz(model, 1.0) <= 1e-3

    def test_nyquist_valid(self, fmam):
        sig, model = fmam
        ifs = model.if_matrix_hz(sig.times_s)
        assert np.all(ifs > 0) and np.all(ifs < 64.0)

    def test_reproducible(self):
        a, _ = tq.gen_fmam()
        b, _ = tq.gen_fmam()
        assert np.array_equal(a.samples, b.samples)


class TestCrossover:
    def test_shape(self, crossover):
        sig, _ = crossover
        assert len(sig) == 1024 and sig.sample_rate_hz == 1024.0

    def test_ifs_cross_at_quarter_points(self, crossover):
        _, model = crossover
        for t in (0.25, 0.75):
            ifs = [m.if_hz(np.array(t)) for m in model.modes]
            assert np.allclose(ifs, 250.0)

    def test_envelopes_at_one_second(self, crossover):
        _, model = crossover
        t = np.array(1.0)
        assert np.isclose(model.modes[1].amplitude(t), np.exp(-0.5))
        assert np.isclose(model.modes[2].amplitude(t), 0.8 * np.exp(0.5))

    def test_phase_if_consistency(self, crossover):
        _, model = crossover
        assert max_if_deviation_hz(model, 1.0) <= 1e-3


class TestChirpSurrogate:
    def test_if_endpoints(self):
        _, model = tq.gen_chirp_surrogate(30, 400, 3, 1024, 1)
        assert np.isclose(model.modes[0].if_hz(np.array(0.0)), 30.0)
        assert np.isclose(model.modes[0].if_hz(np.array(1.0)), 400.0)

    def test_linear_chirp_phase_closed_form(self):
        _, model = tq.gen_chirp_surrogate(30, 400, 1, 1024, 1)
        t = np.linspace(0, 1, 17)
        expected = 2 * np.pi * (30 * t + (400 - 30) * t**2 / 2)
        assert np.allclose(model.modes[0].phase_rad(t), expected, rtol=1e-12)

    def test_quadratic_midpoint(self):
        _, model = tq.gen_chirp_surrogate(30, 400, 2, 1024, 2)
        assert np.isclose(model.modes[0].if_hz(np.array(1.0)), 30 + (400 - 30) / 4)

    def test_phase_if_consistency(self):
        _, model = tq.gen_chirp_surrogate(30, 400, 3, 1024, 1)
        assert max_if_deviation_hz(model, 1.0) <= 1e-3

    @pytest.mark.parametrize("bad", [
        dict(f_start_hz=0.0), dict(f_start_hz=500.0), dict(f_end_hz=512.0),
        dict(power=0.5), dict(duration_s=0.0),
        dict(duration_s=np.nan), dict(duration_s=np.inf), dict(fs_hz=np.inf),
    ])
    def test_rejects_bad_parameters(self, bad):
        kw = dict(f_start_hz=30.0, f_end_hz=400.0, power=3.0,
                  fs_hz=1024.0, duration_s=1.0)
        kw.update(bad)
        with pytest.raises(InvalidParameterError):
            tq.gen_chirp_surrogate(**kw)


class TestTone:
    def test_samples_match_definition(self):
        sig, _ = tq.gen_tone(32, 128, 1)
        n = np.arange(128)
        assert np.allclose(sig.samples, np.exp(2j * np.pi * 32 * n / 128), rtol=1e-12)

    def test_nyquist_boundary(self):
        tq.gen_tone(0.4 * 128, 128, 1)  # accepted
        with pytest.raises(InvalidParameterError):
            tq.gen_tone(0.5 * 128, 128, 1)
        with pytest.raises(InvalidParameterError):
            tq.gen_tone(600, 1000, 1)

    @pytest.mark.parametrize("fs, dur", [(np.inf, 1.0), (128.0, np.nan), (128.0, np.inf)])
    def test_rejects_non_finite_rate_and_duration(self, fs, dur):
        with pytest.raises(InvalidParameterError):
            tq.gen_tone(32.0, fs, dur)

    # the rate is checked first, then the duration, then their product, all
    # before the Nyquist check that needs a valid rate
    @pytest.mark.parametrize("fs, dur, named", [
        (np.nan, 1.0, "fs_hz="), (-5.0, -3.0, "fs_hz="), (128.0, -1.0, "duration_s="),
        (1e300, 1e300, "fs_hz x duration_s"),
    ])
    def test_refusal_names_the_bad_parameter(self, fs, dur, named):
        with pytest.raises(InvalidParameterError, match=named):
            tq.gen_tone(32.0, fs, dur)


class TestGeneratorContracts:
    GENERATORS = {
        "fmam": lambda: tq.gen_fmam(),
        "crossover": lambda: tq.gen_crossover(),
        "chirp": lambda: tq.gen_chirp_surrogate(30, 400, 3, 1024, 1),
        "tone": lambda: tq.gen_tone(32, 128, 1),
    }

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_bit_reproducible(self, name):
        a, _ = self.GENERATORS[name]()
        b, _ = self.GENERATORS[name]()
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_if_matches_phase_derivative(self, name):
        sig, model = self.GENERATORS[name]()
        assert max_if_deviation_hz(model, sig.duration_s) <= 1e-3

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_ifs_nyquist_valid(self, name):
        sig, model = self.GENERATORS[name]()
        ifs = model.if_matrix_hz(sig.times_s)
        assert np.all(ifs > 0) and np.all(ifs < sig.sample_rate_hz / 2)


class TestAddNoise:
    def test_clean_flags_are_noops(self, tone32):
        sig, _ = tone32
        assert tq.add_noise(sig, None, 0) is sig
        assert tq.add_noise(sig, np.inf, 0) is sig

    @pytest.mark.parametrize("snr_db, seed", [
        (10.0, -1), (1e300, 0), (-1e300, 0), (-np.inf, 0),
    ])
    def test_rejects_negative_seed_and_non_finite_noise(self, tone32, snr_db, seed):
        sig, _ = tone32
        with pytest.raises(InvalidParameterError):
            tq.add_noise(sig, snr_db, seed)

    def test_deterministic_for_seed(self, tone32):
        sig, _ = tone32
        a = tq.add_noise(sig, 10.0, seed=7)
        b = tq.add_noise(sig, 10.0, seed=7)
        assert np.array_equal(a.samples, b.samples)
        c = tq.add_noise(sig, 10.0, seed=8)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_empirical_snr_complex(self, snr_db):
        sig, _ = tq.gen_chirp_surrogate(30, 400, 3, 1024, 4)  # 4096 samples
        noisy = tq.add_noise(sig, snr_db, seed=3)
        p_sig = np.mean(np.abs(sig.samples) ** 2)
        p_noise = np.mean(np.abs(noisy.samples - sig.samples) ** 2)
        assert abs(10 * np.log10(p_sig / p_noise) - snr_db) <= 0.5

    def test_empirical_snr_real_carrier(self):
        t = np.arange(4096) / 1024.0
        sig = tq.Signal(np.sin(2 * np.pi * 50 * t), 1024.0)
        noisy = tq.add_noise(sig, 10.0, seed=5)
        assert noisy.is_real  # real carrier gets real noise
        p_sig = np.mean(np.abs(sig.samples) ** 2)
        p_noise = np.mean(np.abs(noisy.samples - sig.samples) ** 2)
        assert abs(10 * np.log10(p_sig / p_noise) - 10.0) <= 0.5


class TestSignalCsv:
    def test_roundtrip_real(self, tmp_path, fmam):
        sig, _ = fmam
        path = tmp_path / "sig.csv"
        tq.save_signal_csv(sig, path)
        back = tq.load_signal(path)
        assert back.sample_rate_hz == 128.0
        assert np.array_equal(back.samples, sig.samples)
        header = path.read_text().splitlines()[0]
        assert header == "# fs=128"

    def test_roundtrip_complex(self, tmp_path, crossover):
        sig, _ = crossover
        path = tmp_path / "sig.csv"
        tq.save_signal_csv(sig, path)
        back = tq.load_signal(path)
        assert np.array_equal(back.samples, sig.samples)

    def test_missing_fs_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(FormatError, match="fs"):
            tq.load_signal(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# fs=10\n1.0\nnot-a-number\n")
        with pytest.raises(FormatError, match="line 3"):
            tq.load_signal(path)


class TestWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "t.wav"
        raw = np.array([0, 16384, -16384, 32767, -32768], dtype="<i2")
        write_wav(path, raw)
        sig = tq.load_signal(path)
        assert sig.sample_rate_hz == 8000.0
        assert np.allclose(sig.samples.real, raw / 32768.0)
        assert sig.samples.real.max() < 1.0 and sig.samples.real.min() >= -1.0

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        raw = np.zeros(64, dtype="<i2")
        write_wav(path, raw, channels=2)
        with pytest.raises(FormatError, match="only mono WAV"):
            tq.load_signal(path)

    @pytest.mark.parametrize("blob", [b"", b"RIFF"], ids=["empty", "truncated"])
    def test_short_file_is_a_format_error(self, tmp_path, blob):
        path = tmp_path / "short.wav"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="not a readable WAV"):
            tq.load_signal(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "b8.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(8000)
            wf.writeframes(bytes(range(64)))
        with pytest.raises(FormatError, match="only 16-bit PCM WAV"):
            tq.load_signal(path)


def like(sig, n_bins):
    """An all-zero template grid with one frame per sample and 1 Hz bins."""
    return tq.TFRGrid(np.zeros((len(sig), n_bins), complex), sig.t0_s, 1.0, 0.5,
                      "like", sig.sample_rate_hz)


class TestIdealTfr:
    def test_on_bin_tone_single_cell_per_frame(self, tone32):
        sig, model = tone32
        t = sig.times_s
        grid = tq.ideal_tfr(model, like(sig, 128))
        counts = (np.abs(grid.data) > 0).sum(axis=1)
        assert np.all(counts == 1)
        assert np.allclose(grid.data[:, 32], np.exp(1j * 2 * np.pi * 32 * t))
        assert (grid.method_tag, grid.rho) == ("ideal", 1.0)
        assert np.array_equal(grid.time_axis_s, t)

    def test_fmam_two_cells_per_frame(self, fmam):
        sig, model = fmam
        grid = tq.ideal_tfr(model, like(sig, 128))
        counts = (np.abs(grid.data) > 0).sum(axis=1)
        assert np.all(counts == 2)

    def test_crossover_modes_merge_at_crossing(self, crossover):
        sig, model = crossover
        grid = tq.ideal_tfr(model, like(sig, 1024))
        n = int(np.argmin(np.abs(sig.times_s - 0.25)))
        assert (np.abs(grid.data[n]) > 0).sum() == 1
        counts = (np.abs(grid.data) > 0).sum(axis=1)
        assert np.all(counts <= 3)  # never more than one cell per mode

    def test_out_of_range_if_rejected(self, fmam):
        sig, model = fmam
        with pytest.raises(InvalidParameterError, match="mode IF range"):
            tq.ideal_tfr(model, like(sig, 32))
