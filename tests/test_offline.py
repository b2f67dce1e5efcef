"""Tests for the offline phase: labeling and model training."""

import numpy as np
import pytest

from repro.android.apps import app
from repro.android.device import VictimDevice
from repro.android.events import KeyPress
from repro.android.os_config import default_config
from repro.core.offline import (
    OfflineTrainer,
    TrainingData,
    frame_to_class_label,
    label_deltas,
    label_samples,
)
from repro.kgsl.device_file import DeviceClock, open_kgsl
from repro.kgsl.sampler import PerfCounterSampler, nonzero_block_deltas


class TestFrameLabelMapping:
    def test_press_labels(self):
        assert frame_to_class_label("press:w") == "key:w"
        assert frame_to_class_label("press_dup:w") == "key:w"

    def test_press_of_colon_character(self):
        assert frame_to_class_label("press::") == "key::"

    def test_echo_labels_carry_length(self):
        assert frame_to_class_label("echo:7") == "field:7:on"

    def test_blink_labels(self):
        assert frame_to_class_label("cursor_blink:3:off") == "field:3:off"
        assert frame_to_class_label("cursor_blink:3:on") == "field:3:on"

    def test_backspace_labels(self):
        assert frame_to_class_label("backspace:2") == "field:2:on"

    def test_dismiss_labels(self):
        assert frame_to_class_label("dismiss:w") == "reject:dismiss:w"

    def test_system_labels(self):
        assert frame_to_class_label("notification") == "reject:notification"
        assert frame_to_class_label("switch_away_3") == "reject:transient"
        assert frame_to_class_label("shade_down_1") == "reject:transient"
        assert frame_to_class_label("other_app") == "reject:transient"
        assert frame_to_class_label("initial") == "reject:transient"

    def test_unknown_label_maps_to_none(self):
        assert frame_to_class_label("mystery_frame") is None


class TestLabelSamples:
    def test_clean_windows_labeled(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(0))
        events = [KeyPress(t=0.5 + 0.55 * i, char="w") for i in range(6)]
        trace = device.compile(events, end_time_s=4.2)
        kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 4.2)
        data = TrainingData()
        label_samples(trace.timeline, samples, data)
        assert "key:w" in data.vectors_by_label
        assert data.clean_windows > 0

    def test_ambiguous_windows_discarded(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(0))
        # two presses virtually simultaneous -> merged windows get discarded
        trace = device.compile(
            [KeyPress(t=0.5, char="w"), KeyPress(t=0.502, char="n")], end_time_s=1.5
        )
        kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
        sampler = PerfCounterSampler(kgsl, rng=np.random.default_rng(0))
        samples = sampler.sample_range(0.0, 1.5)
        data = TrainingData()
        label_samples(trace.timeline, samples, data)
        assert data.discarded_windows > 0

    def test_training_data_merge(self):
        a = TrainingData()
        a.add("key:a", np.zeros(11))
        a.clean_windows = 1
        b = TrainingData()
        b.add("key:a", np.ones(11))
        b.add("key:b", np.ones(11))
        b.discarded_windows = 2
        a.merge(b)
        assert a.counts() == {"key:a": 2, "key:b": 1}
        assert a.discarded_windows == 2


def assert_same_training_data(a: TrainingData, b: TrainingData) -> None:
    assert (a.clean_windows, a.discarded_windows) == (b.clean_windows, b.discarded_windows)
    assert list(a.vectors_by_label) == list(b.vectors_by_label)
    for label, vectors in a.vectors_by_label.items():
        assert np.array_equal(np.stack(vectors), np.stack(b.vectors_by_label[label])), label


def per_read_session(self, events, end_time_s, data):
    """``OfflineTrainer._run_session`` on the per-read path: the oracle."""
    device = VictimDevice(self.config, self.app, rng=self.rng)
    trace = device.compile(events, end_time_s=end_time_s)
    kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
    sampler = PerfCounterSampler(kgsl, interval_s=self.interval_s, rng=self.rng)
    label_samples(trace.timeline, sampler.sample_range(0.0, end_time_s), data)


class TestBlockLabeling:
    """Labeling from one bulk read equals labeling the per-read samples."""

    def test_block_labels_equal_label_samples(self, config):
        device = VictimDevice(config, app("chase"), rng=np.random.default_rng(3))
        events = [KeyPress(t=0.4 + 0.13 * i, char="wnq@"[i % 4]) for i in range(24)]
        trace = device.compile(events, end_time_s=4.0)

        def sampler():
            kgsl = open_kgsl(trace.timeline, clock=DeviceClock())
            return PerfCounterSampler(kgsl, rng=np.random.default_rng(5))

        scalar = TrainingData()
        label_samples(trace.timeline, sampler().sample_range(0.0, 4.0), scalar)
        block = sampler().sample_block(0.0, 4.0)
        blocked = TrainingData()
        label_deltas(
            trace.timeline,
            nonzero_block_deltas(block.counter_ids, block.t, block.values),
            blocked,
        )
        assert scalar.clean_windows > 0 and scalar.discarded_windows > 0
        assert_same_training_data(blocked, scalar)

    def test_trained_model_equals_per_read_training(self, config, monkeypatch):
        def train():
            trainer = OfflineTrainer(config, app("chase"), rng=np.random.default_rng(7))
            data = trainer.collect(sweep_repeats=1)
            return data, trainer.train(data=data)

        data, model = train()
        monkeypatch.setattr(OfflineTrainer, "_run_session", per_read_session)
        oracle_data, oracle_model = train()
        assert_same_training_data(data, oracle_data)
        assert model.to_dict() == oracle_model.to_dict()


class TestTrainer:
    def test_model_key_includes_config_and_app(self, config):
        trainer = OfflineTrainer(config, app("chase"))
        assert trainer.model_key.endswith("/chase")
        assert config.config_key() in trainer.model_key

    def test_trainable_characters_cover_fig18(self, config):
        trainer = OfflineTrainer(config, app("chase"))
        chars = trainer.trainable_characters()
        assert len(chars) == 80
        assert "," in chars and "Q" in chars and "@" in chars

    def test_trained_model_has_all_key_classes(self, chase_model, config):
        trainer = OfflineTrainer(config, app("chase"))
        for char in trainer.trainable_characters():
            assert f"key:{char}" in chase_model.labels, char

    def test_trained_model_has_reject_classes(self, chase_model):
        assert any(label.startswith("reject:dismiss") for label in chase_model.labels)
        assert "reject:notification" in chase_model.labels
        assert "reject:transient" in chase_model.labels

    def test_metadata_records_window_counts(self, chase_model):
        assert chase_model.metadata["clean_windows"] > 500
        assert chase_model.metadata["app"] == "chase"

    def test_distinct_keys_have_distinct_centroids(self, chase_model):
        import itertools

        seen = {}
        for label in chase_model.key_labels:
            key = tuple(np.round(chase_model.centroid(label), 1))
            assert key not in seen, f"{label} collides with {seen.get(key)}"
            seen[key] = label
