"""Workload generator: Zipf popularity, Poisson arrivals, determinism."""

import pickle

import pytest

from repro.service.workload import (
    ArrivalStream,
    Workload,
    WorkloadConfig,
    ZipfPopularity,
)


def config(**overrides):
    base = dict(pages=20, lookups=500, rate_per_hour=1000.0, seed=3)
    base.update(overrides)
    return WorkloadConfig(**base)


class TestZipfPopularity:
    def test_weights_sum_to_one_and_decay(self):
        popularity = ZipfPopularity(10, exponent=1.1)
        weights = [popularity.weight(rank) for rank in range(10)]
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_sample_covers_extremes(self):
        popularity = ZipfPopularity(10, exponent=1.1)
        assert popularity.sample(0.0) == 0
        assert popularity.sample(0.999999) == 9

    def test_zero_exponent_is_uniform(self):
        popularity = ZipfPopularity(4, exponent=0.0)
        assert popularity.weight(0) == pytest.approx(popularity.weight(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity(0)
        with pytest.raises(ValueError):
            ZipfPopularity(5, exponent=-1.0)


class TestWorkloadDeterminism:
    def test_two_iterations_are_identical(self):
        workload = Workload(config())
        assert list(workload) == list(workload)

    def test_same_seed_same_stream_different_instances(self):
        assert list(Workload(config())) == list(Workload(config()))

    def test_different_seed_different_stream(self):
        assert list(Workload(config())) != list(Workload(config(seed=4)))


class TestArrivalStream:
    def test_pickled_mid_stream_yields_the_same_remainder(self):
        stream = ArrivalStream(config(flash_at_hours=0.1))
        for _ in range(137):
            stream.draw()
        restored = pickle.loads(pickle.dumps(stream))
        assert [restored.draw() for _ in range(300)] == [
            stream.draw() for _ in range(300)
        ]


class TestWorkloadShape:
    def test_arrivals_are_increasing_and_rate_roughly_holds(self):
        lookups = list(Workload(config(lookups=2000)))
        times = [lookup.when_hours for lookup in lookups]
        assert times == sorted(times)
        # 2000 arrivals at 1000/hour ≈ 2 hours, within Poisson noise.
        assert 1.5 < times[-1] < 2.5

    def test_seq_is_dense(self):
        lookups = list(Workload(config()))
        assert [lookup.seq for lookup in lookups] == list(range(500))

    def test_popular_pages_dominate(self):
        lookups = list(Workload(config(lookups=2000)))
        top = sum(1 for lookup in lookups if lookup.page_index == 0)
        bottom = sum(1 for lookup in lookups if lookup.page_index == 19)
        assert top > 5 * max(bottom, 1)

    def test_phone_fraction_extremes(self):
        all_phone = list(Workload(config(phone_fraction=1.0)))
        assert {lookup.device_class for lookup in all_phone} == {"phone"}
        all_tablet = list(Workload(config(phone_fraction=0.0)))
        assert {lookup.device_class for lookup in all_tablet} == {"tablet"}

    def test_users_come_from_the_pool(self):
        lookups = list(Workload(config(user_pool=4)))
        users = {lookup.user for lookup in lookups}
        assert users <= {"user0", "user1", "user2", "user3"}
        assert len(users) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(config(lookups=0))
        with pytest.raises(ValueError):
            Workload(config(rate_per_hour=0.0))
        with pytest.raises(ValueError):
            Workload(config(phone_fraction=1.5))
        with pytest.raises(ValueError, match="user pool"):
            Workload(config(user_pool=0))


class TestFlashCrowd:
    def test_disabled_flash_leaves_the_stream_bit_identical(self):
        # The flash branch must not perturb the base generator: PR 4's
        # pinned smoke counters depend on this exact draw sequence.
        plain = list(Workload(config()))
        gated = list(Workload(config(flash_at_hours=None)))
        assert plain == gated

    def test_flash_concentrates_on_the_flash_page(self):
        flashed = list(
            Workload(
                config(
                    lookups=2000,
                    flash_at_hours=0.5,
                    flash_duration_hours=0.3,
                    flash_multiplier=8.0,
                    flash_focus=1.0,
                    flash_page_rank=3,
                )
            )
        )
        inside = [
            lookup
            for lookup in flashed
            if 0.5 <= lookup.when_hours < 0.8
        ]
        assert inside
        # The window gate reads the previous arrival's clock, so the
        # first in-window arrival may still be a base-branch draw.
        focused = sum(1 for lookup in inside if lookup.page_index == 3)
        assert focused >= len(inside) - 1

    def test_flash_multiplies_the_arrival_rate(self):
        window = (0.5, 0.8)
        base = list(Workload(config(lookups=2000)))
        flashed = list(
            Workload(
                config(
                    lookups=2000,
                    flash_at_hours=window[0],
                    flash_duration_hours=window[1] - window[0],
                    flash_multiplier=8.0,
                )
            )
        )

        def in_window(stream):
            return sum(
                1 for x in stream if window[0] <= x.when_hours < window[1]
            )

        assert in_window(flashed) > 3 * in_window(base)

    def test_flash_validation(self):
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=-1.0))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_duration_hours=0.0))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_multiplier=0.0))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_focus=1.5))
        with pytest.raises(ValueError):
            Workload(config(flash_at_hours=1.0, flash_page_rank=20))
