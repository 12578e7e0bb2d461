"""Tests for the neural substrate and the simulated pre-trained encoders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UnknownModelError
from repro.nn.functional import gelu, hard_gelu, layer_norm, softmax
from repro.nn.transformer import EncoderConfig, TransformerEncoder
from repro.transformers import EMBEDDER_NAMES, load_pretrained


class TestFunctional:
    def test_softmax_sums_to_one(self):
        out = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert out.sum() == pytest.approx(1.0)

    def test_softmax_stable_for_large_inputs(self):
        out = softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_gelu_fixed_points(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-3)

    def test_hard_gelu_tracks_gelu(self):
        x = np.linspace(-3, 3, 50)
        assert np.max(np.abs(hard_gelu(x) - gelu(x))) < 0.3

    def test_layer_norm_moments(self):
        x = np.random.default_rng(0).normal(size=(4, 16)) * 5 + 3
        out = layer_norm(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_softmax_invariant_to_shift(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-9)


class TestTransformerEncoder:
    @pytest.fixture(scope="class")
    def encoder(self):
        return TransformerEncoder(EncoderConfig(dim=32, n_layers=2, n_heads=4))

    def test_output_shape(self, encoder):
        x = np.random.default_rng(0).normal(size=(3, 7, 32)).astype(np.float32)
        out = encoder.encode(x)
        assert out.shape == (3, 7, 32)

    def test_padding_positions_zeroed(self, encoder):
        x = np.random.default_rng(0).normal(size=(2, 5, 32)).astype(np.float32)
        mask = np.ones((2, 5), dtype=bool)
        mask[0, 3:] = False
        out = encoder.encode(x, mask)
        assert np.allclose(out[0, 3:], 0.0)

    def test_padding_does_not_leak_into_real_tokens(self, encoder):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 32)).astype(np.float32)
        mask_short = np.array([[True, True, False, False]])
        padded = np.concatenate([x, rng.normal(size=(1, 2, 32))], axis=1)
        padded = padded.astype(np.float32)
        mask_long = np.array([[True, True, False, False, False, False]])
        out_short = encoder.encode(x, mask_short)[0, :2]
        out_long = encoder.encode(padded, mask_long)[0, :2]
        np.testing.assert_allclose(out_short, out_long, atol=1e-4)

    def test_deterministic(self):
        cfg = EncoderConfig(dim=32, n_layers=2, n_heads=4, seed=9)
        x = np.random.default_rng(0).normal(size=(1, 5, 32)).astype(np.float32)
        a = TransformerEncoder(cfg).encode(x)
        b = TransformerEncoder(cfg).encode(x)
        np.testing.assert_allclose(a, b)

    def test_dim_head_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(dim=30, n_heads=4)

    def test_all_layers_returned(self, encoder):
        x = np.random.default_rng(0).normal(size=(1, 4, 32)).astype(np.float32)
        layers = encoder.encode_all_layers(x)
        assert len(layers) == 2

    def test_single_token_segment_no_nan(self, encoder):
        # One-token segments would fully mask a row without the guard.
        x = np.random.default_rng(0).normal(size=(1, 2, 32)).astype(np.float32)
        segments = np.array([[0, 1]])
        out = encoder.encode(x, segments=segments)
        assert np.isfinite(out).all()

    def test_shared_layers_have_one_weight_set(self):
        cfg = EncoderConfig(dim=32, n_layers=4, n_heads=4, share_layers=True)
        assert len(TransformerEncoder(cfg)._layers) == 1


class TestPretrained:
    def test_five_architectures(self):
        assert EMBEDDER_NAMES == ("bert", "dbert", "albert", "roberta", "xlnet")

    def test_unknown_raises(self):
        with pytest.raises(UnknownModelError):
            load_pretrained("gpt5")

    def test_memoized(self):
        assert load_pretrained("bert") is load_pretrained("bert")

    def test_token_similarity_structure(self):
        enc = load_pretrained("albert")
        same = enc._token_vector("sony") @ enc._token_vector("sony")
        typo = enc._token_vector("sony") @ enc._token_vector("somy")
        unrelated = enc._token_vector("sony") @ enc._token_vector("kitchen")
        assert same == pytest.approx(1.0)
        assert typo > unrelated

    def test_sep_survives_tokenization(self):
        enc = load_pretrained("bert")
        tokens = enc.tokenize(enc.pair_text("a b", "c"))
        assert tokens == ["a", "b", "[sep]", "c"]

    def test_segment_ids_flip_after_sep(self):
        enc = load_pretrained("bert")
        _matrix, segments = enc._sequence_matrix(enc.pair_text("a b", "c d"))
        np.testing.assert_array_equal(segments, [0, 0, 0, 1, 1])

    def test_embed_sequences_shapes(self):
        enc = load_pretrained("dbert")
        out = enc.embed_sequences(["alpha beta", "", "gamma"])
        assert out.shape == (3, enc.output_dim("mean"))
        assert np.isfinite(out).all()
        # Empty texts all embed to the same constant vector.
        again = enc.embed_sequences([""])
        # float32 batch composition perturbs the last bits only.
        np.testing.assert_allclose(out[1], again[0], atol=1e-5)

    def test_last4_pooling_dim(self):
        enc = load_pretrained("bert")
        out = enc.embed_sequences(["hello world"], pooling="last4")
        assert out.shape == (1, enc.output_dim("last4"))

    def test_architectures_differ(self):
        texts = ["sony wireless headset"]
        a = load_pretrained("bert").embed_sequences(texts)
        b = load_pretrained("roberta").embed_sequences(texts)
        assert not np.allclose(a, b)

    def test_match_pairs_more_similar_than_nonmatch(self):
        enc = load_pretrained("albert")
        match = enc.pair_text("canon eos camera 5d", "canon eos camera 5d")
        nonmatch = enc.pair_text("canon eos camera 5d", "dell laptop xps 13")
        matrix_m, seg_m = enc._sequence_matrix(match)
        matrix_n, seg_n = enc._sequence_matrix(nonmatch)

        def segment_cosine(matrix, seg):
            left = matrix[seg == 0][:-1].mean(axis=0)  # Drop [sep] row later.
            right = matrix[seg == 1].mean(axis=0)
            return float(
                left @ right / (np.linalg.norm(left) * np.linalg.norm(right))
            )

        assert segment_cosine(matrix_m, seg_m) > segment_cosine(matrix_n, seg_n)
