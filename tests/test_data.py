"""Synthetic benchmark: generation, photometric twin, netpbm IO."""

import math
import os
import tracemalloc

import numpy as np
import pytest

import dife.data as D
from dife.data import (DomainSample, FormatError, GenerationError,
                       PhotometricTransform, apply_photometric, gaussian_blur,
                       generate_domain, generate_sample, hue_rotate,
                       random_flip)
from dife.tensor import ContractError


class TestGeneration:
    def test_same_seed_is_byte_identical(self):
        a = generate_sample(7, 3, "source", (48, 48))
        b = generate_sample(7, 3, "source", (48, 48))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_domains_share_masks_not_images(self):
        src = generate_sample(7, 3, "source", (48, 48))
        tgt = generate_sample(7, 3, "target", (48, 48))
        assert np.array_equal(src.mask, tgt.mask)
        assert not np.allclose(src.image, tgt.image, atol=1e-3)

    def test_values_clamped(self):
        for domain in ("source", "target"):
            s = generate_sample(0, 0, domain, (48, 48))
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_small_canvas_rejected(self):
        with pytest.raises(GenerationError):
            generate_sample(0, 0, "source", (16, 16))
        with pytest.raises(GenerationError):
            generate_domain(0, "source", 0)

    def test_unknown_domain_rejected(self):
        with pytest.raises(GenerationError):
            generate_sample(0, 0, "staging", (48, 48))

    def test_class_balance(self):
        # each foreground class appears in >= 30% of 200 samples
        samples = generate_domain(200, "source", 123)
        for cls in (1, 2, 3):
            present = sum((s.mask == cls).any() for s in samples)
            assert present >= 60, (cls, present)

    def test_channel_mean_shift_between_domains(self):
        src = generate_domain(100, "source", 5)
        tgt = generate_domain(100, "target", 5)
        mean_src = np.mean([s.image.mean(axis=(1, 2)) for s in src], axis=0)
        mean_tgt = np.mean([s.image.mean(axis=(1, 2)) for s in tgt], axis=0)
        assert np.abs(mean_src - mean_tgt).mean() > 0.05


class TestPhotometric:
    IDENT = {"brightness": 0.0, "contrast": 0.0, "hue": 0.0, "gamma": 1.0,
             "sigma": 0.0}

    def test_zero_params_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        out = apply_photometric(x, dict(self.IDENT))
        assert np.allclose(out, x, atol=1e-12)

    def test_brightness_shift_on_constant(self):
        x = np.full((3, 4, 4), 0.5)
        params = dict(self.IDENT, brightness=0.1)
        out = apply_photometric(x, params)
        assert np.allclose(out, 0.6, atol=1e-12)

    def test_matches_scalar_pipeline_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(3, 6, 6))
        params = PhotometricTransform().sample_params(np.random.default_rng(17))
        out = apply_photometric(x, dict(params))

        # independent per-pixel reimplementation of the five steps
        y = x + params["brightness"]
        y = (y - 0.5) * (1.0 + params["contrast"]) + 0.5
        a = np.deg2rad(params["hue"])
        c, s = np.cos(a), np.sin(a)
        one3, sq3 = 1.0 / 3.0, np.sqrt(1.0 / 3.0)
        m = np.array([
            [c + (1 - c) * one3, one3 * (1 - c) - sq3 * s, one3 * (1 - c) + sq3 * s],
            [one3 * (1 - c) + sq3 * s, c + one3 * (1 - c), one3 * (1 - c) - sq3 * s],
            [one3 * (1 - c) - sq3 * s, one3 * (1 - c) + sq3 * s, c + one3 * (1 - c)],
        ])
        z = np.zeros_like(y)
        for i in range(6):
            for j in range(6):
                z[:, i, j] = m @ y[:, i, j]
        z = np.clip(z, 0, 1) ** params["gamma"]
        # reference blur: explicit loops with reflect padding
        sigma = params["sigma"]
        radius = max(1, int(np.ceil(3.0 * sigma)))
        xs = np.arange(-radius, radius + 1, dtype=np.float64)
        kern = np.exp(-0.5 * (xs / sigma) ** 2)
        kern /= kern.sum()
        ref = np.zeros_like(z)
        padded = np.pad(z, ((0, 0), (radius, radius), (0, 0)), mode="reflect")
        for i in range(6):
            ref[:, i, :] = np.tensordot(kern, padded[:, i : i + 2 * radius + 1, :], axes=(0, 1))
        padded = np.pad(ref, ((0, 0), (0, 0), (radius, radius)), mode="reflect")
        for j in range(6):
            ref[:, :, j] = np.tensordot(kern, padded[:, :, j : j + 2 * radius + 1], axes=(0, 2))
        ref = np.clip(ref, 0, 1)
        assert np.abs(out - ref).max() < 1e-9

    def test_result_clamped(self):
        x = np.full((3, 4, 4), 0.9)
        params = dict(self.IDENT, brightness=0.5)
        out = apply_photometric(x, params)
        assert out.max() <= 1.0

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        t = PhotometricTransform()
        a, b = (apply_photometric(x, t.sample_params(np.random.default_rng(5))) for _ in range(2))
        assert np.array_equal(a, b)

    def test_hue_rotation_preserves_grey_axis(self):
        grey = np.full((3, 2, 2), 0.42)
        assert np.allclose(hue_rotate(grey, 137.0), grey, atol=1e-12)

    def test_blur_identity_and_mass(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        assert gaussian_blur(x, 0.0) is x
        flat = np.full((3, 8, 8), 0.3)
        assert np.allclose(gaussian_blur(flat, 1.5), 0.3, atol=1e-12)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["hue", "blur_sigma", "gamma_max"])
    def test_infinite_range_rejected(self, name, value):
        # +inf would construct and overflow at the first draw; NaN is
        # covered by test_train_eval's range checks
        with pytest.raises(ContractError, match=name):
            PhotometricTransform(**{name: value})


class TestRandomFlip:
    def test_image_and_mask_flip_together(self):
        s = generate_sample(4, 0, "source", (48, 48))
        flipped = False
        rng = np.random.default_rng(0)
        for _ in range(20):
            img, msk = random_flip(s.image, s.mask, rng)
            if not np.array_equal(msk, s.mask):
                flipped = True
                assert np.array_equal(img, s.image[:, :, ::-1])
                assert np.array_equal(msk, s.mask[:, ::-1])
            else:
                assert np.array_equal(img, s.image)
        assert flipped


class TestNetpbm:
    def test_mask_round_trip_exact(self, tmp_path):
        s = generate_sample(9, 2, "source", (48, 48))
        p = tmp_path / "m.pgm"
        D.write_pgm(p, s.mask)
        assert np.array_equal(D.read_pgm(p), s.mask)

    def test_image_round_trip_quantization_bound(self, tmp_path):
        s = generate_sample(9, 2, "target", (48, 48))
        p = tmp_path / "i.ppm"
        D.write_ppm(p, s.image)
        back = D.read_ppm(p)
        assert np.abs(back - s.image).max() <= 1.0 / 255.0 + 1e-12

    def test_handwritten_p6_bytes(self, tmp_path):
        # 2x2 P6: pixels (255,0,0) (0,255,0) / (0,0,255) (255,255,255)
        blob = b"P6\n2 2\n255\n" + bytes(
            [255, 0, 0, 0, 255, 0,
             0, 0, 255, 255, 255, 255])
        p = tmp_path / "hand.ppm"
        p.write_bytes(blob)
        img = D.read_ppm(p)
        assert img.shape == (3, 2, 2)
        expect = np.array([
            [[1.0, 0.0], [0.0, 1.0]],   # R
            [[0.0, 1.0], [0.0, 1.0]],   # G
            [[0.0, 0.0], [1.0, 1.0]],   # B
        ])
        assert np.array_equal(img, expect)

    def test_comment_in_header(self, tmp_path):
        blob = b"P5\n# a comment\n2 1\n255\n\x03\x01"
        p = tmp_path / "c.pgm"
        p.write_bytes(blob)
        assert np.array_equal(D.read_pgm(p), np.array([[3, 1]]))

    def test_bad_magic_reports_offset(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P3\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(FormatError, match="byte 0"):
            D.read_ppm(p)

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "short.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(FormatError, match="truncated"):
            D.read_ppm(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "deep.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(FormatError, match="maxval"):
            D.read_ppm(p)

    def _bad_p6(self, tmp_path, header, payload, match):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n" + header + b"\n255\n" + payload)
        with pytest.raises(FormatError, match=match) as err:
            D.read_ppm(p)
        assert str(p) in str(err.value)

    def test_negative_width_rejected(self, tmp_path):
        # a (3, 5, 3) image can be sliced from these 48 bytes: only the size check fails
        self._bad_p6(tmp_path, b"-1 5", b"\x00" * 48, r"width -1 < 1 at byte 3")

    def test_negative_width_and_height_rejected(self, tmp_path):
        self._bad_p6(tmp_path, b"-4 -4", b"\x00" * 48, r"width -4 < 1 at byte 3")

    def test_zero_size_rejected(self, tmp_path):
        self._bad_p6(tmp_path, b"0 0", b"", r"width 0 < 1 at byte 3")
        self._bad_p6(tmp_path, b"2 0", b"", r"height 0 < 1 at byte 5")

    @pytest.mark.parametrize("header,byte", [(b"+2 10", 3), (b"2 1_0", 5)])
    def test_size_with_sign_or_separator_rejected(self, tmp_path, header, byte):
        # int() would read both as a 10x2 mask, which these 20 bytes fill exactly
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n" + header + b"\n255\n" + b"\x00" * 20)
        with pytest.raises(FormatError, match=f"non-numeric header field at byte {byte}$"):
            D.read_pgm(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a 2x2 P6 is an 11-byte header and 12 payload bytes
        self._bad_p6(tmp_path, b"2 2", b"\x00" * 13, r"1 bytes past the payload at byte 23")
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P5\n2 1\n255\n\x03\x01\n")
        with pytest.raises(FormatError, match="past the payload at byte 13"):
            D.read_pgm(p)

    def test_benchmark_size_is_exact(self, tmp_path):
        p = tmp_path / "i.ppm"
        D.write_ppm(p, generate_sample(0, 0, "source", (48, 48)).image)
        assert p.stat().st_size == 13 + 48 * 48 * 3
        assert D.read_ppm(p).shape == (3, 48, 48)


class TestDatasetLayout:
    def test_write_and_load_round_trip(self, tmp_path):
        rows = D.write_dataset(tmp_path, 10, 3, (32, 32))
        n_train, n_val, n_test = D.split_counts(10)
        assert (n_train, n_val, n_test) == (8, 1, 1)
        assert rows == 2 * 10  # 2 domains x 10 samples over 3 splits
        train = D.load_dataset(tmp_path, "source", "train")
        assert len(train) == 8
        assert all(s.image.shape == (3, 32, 32) for s in train)
        assert (tmp_path / "manifest.csv").exists()

    def test_loaded_masks_match_generated(self, tmp_path):
        D.write_dataset(tmp_path, 5, 11, (32, 32))
        originals = generate_domain(5, "target", 11, (32, 32))
        test = D.load_dataset(tmp_path, "target", "test")
        assert np.array_equal(test[0].mask, originals[4].mask)

    def test_each_image_pairs_with_the_mask_of_its_whole_stem(self, tmp_path):
        # img_100000 shares its first five digits with img_10000
        split = tmp_path / "source" / "train"
        split.mkdir(parents=True)
        a, b = generate_domain(2, "source", 4, (32, 32))
        assert not np.array_equal(a.mask, b.mask)
        D.write_sample(split / "img_10000.ppm", split / "msk_10000.pgm", a)
        D.write_sample(split / "img_100000.ppm", split / "msk_100000.pgm", b)
        loaded = D.load_dataset(tmp_path, "source", "train")
        assert [np.array_equal(s.mask, want.mask) for s, want in zip(loaded, (a, b))] == [True, True]

    @pytest.mark.parametrize("mask_size", [(28, 28), (32, 36)])
    def test_mask_size_mismatch_rejected(self, tmp_path, mask_size):
        D.write_dataset(tmp_path, 10, 3, (32, 32))
        bad = tmp_path / "source" / "train" / "img_00003.ppm"
        D.write_pgm(bad.with_name("msk_00003.pgm"), np.zeros(mask_size, dtype=np.int64))
        with pytest.raises(FormatError, match="img_00003"):
            D.load_dataset(tmp_path, "source", "train")

    def test_mixed_sample_sizes_rejected(self, tmp_path):
        D.write_dataset(tmp_path, 10, 3, (32, 32))
        odd = generate_domain(1, "source", 9, (36, 36))[0]
        split = tmp_path / "source" / "train"
        D.write_sample(split / "img_00005.ppm", split / "msk_00005.pgm", odd)
        with pytest.raises(FormatError, match="img_00005"):
            D.load_dataset(tmp_path, "source", "train")


class TestLoadedSamples:
    """Loaded samples hold uint8 views of their files; stack_batch decodes."""

    @pytest.fixture()
    def split(self, tmp_path):
        D.write_dataset(tmp_path, 10, 6, (48, 48))
        return tmp_path, tmp_path / "target" / "train"

    def test_batch_equals_the_stack_of_read_ppm(self, split):
        root, d = split
        loaded = D.load_dataset(root, "target", "train")
        images, masks = D.stack_batch(loaded[:4])
        want = np.stack([D.read_ppm(d / f"img_{i:05d}.ppm") for i in range(4)])
        assert images.dtype == np.float64 and masks.dtype == np.int64
        assert np.array_equal(images, want)
        # channels-last, as read_ppm leaves it: hue_rotate rounds by layout
        assert images.strides == want.strides == (55296, 8, 1152, 24)
        assert np.array_equal(masks, np.stack([D.read_pgm(d / f"msk_{i:05d}.pgm")
                                               for i in range(4)]))

    def test_twin_of_a_batch_row_equals_the_read_ppm_twin(self, split):
        root, d = split
        images, _ = D.stack_batch(D.load_dataset(root, "target", "train")[:2])
        params = PhotometricTransform().sample_params(np.random.default_rng(3))
        assert np.array_equal(apply_photometric(images[1], params),
                              apply_photometric(D.read_ppm(d / "img_00001.ppm"), params))

    def test_generated_samples_stay_float64(self):
        samples = generate_domain(3, "source", 2, (32, 32))
        images, masks = D.stack_batch(samples)
        assert np.array_equal(images, np.stack([s.image for s in samples]))
        assert np.array_equal(masks, np.stack([s.mask for s in samples]))

    def test_a_mixed_batch_decodes_only_the_loaded_images(self, split):
        root, d = split
        generated = generate_domain(1, "target", 6, (48, 48))[0]
        images, _ = D.stack_batch([D.load_dataset(root, "target", "train")[0], generated])
        assert np.array_equal(images[0], D.read_ppm(d / "img_00000.ppm"))
        assert np.array_equal(images[1], generated.image)

    def test_load_holds_little_more_than_the_file_bytes(self, split):
        root, d = split
        file_bytes = sum(os.path.getsize(d / name) for name in os.listdir(d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = D.load_dataset(root, "target", "train")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(samples) == 8
        assert held <= 1.25 * file_bytes, (held, file_bytes)

    def test_loaded_arrays_are_read_only(self, split):
        root, _ = split
        sample = D.load_dataset(root, "target", "train")[0]
        assert sample.image.dtype == sample.mask.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            sample.image[0, 0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            sample.mask[0, 0] = 1

    def test_loaded_sample_round_trips_byte_for_byte(self, split, tmp_path):
        _, d = split
        sample = D.read_sample(d / "img_00002.ppm", d / "msk_00002.pgm")
        D.write_sample(tmp_path / "img.ppm", tmp_path / "msk.pgm", sample)
        assert (tmp_path / "img.ppm").read_bytes() == (d / "img_00002.ppm").read_bytes()
        assert (tmp_path / "msk.pgm").read_bytes() == (d / "msk_00002.pgm").read_bytes()
