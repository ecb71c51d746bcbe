"""Unit tests for Region / RegionSpec."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec


def ds(n=100):
    return Dataset(np.arange(n, dtype=float), numeric={"a": np.zeros(n)})


class TestRegion:
    def test_duration(self):
        assert Region(10.0, 40.0).duration == 30.0

    def test_zero_length_allowed(self):
        assert Region(5.0, 5.0).duration == 0.0

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            Region(10.0, 5.0)

    def test_contains_inclusive(self):
        mask = Region(2.0, 4.0).contains(np.arange(6.0))
        assert list(mask) == [False, False, True, True, True, False]

    def test_widen_extends_both_ends(self):
        r = Region(10.0, 20.0).widened(0.1)
        assert r.start == 9.0 and r.end == 21.0

    def test_widen_negative_shrinks(self):
        r = Region(10.0, 20.0).widened(-0.1)
        assert r.start == 11.0 and r.end == 19.0

    def test_widen_never_inverts(self):
        r = Region(10.0, 20.0).widened(-0.9)
        assert r.end >= r.start

    def test_intersects_overlap_and_touch(self):
        assert Region(0.0, 10.0).intersects(Region(5.0, 15.0))
        assert Region(0.0, 10.0).intersects(Region(10.0, 20.0))  # shared point
        assert Region(5.0, 15.0).intersects(Region(0.0, 10.0))

    def test_intersects_disjoint(self):
        assert not Region(0.0, 10.0).intersects(Region(10.5, 20.0))
        assert not Region(10.5, 20.0).intersects(Region(0.0, 10.0))


class TestRegionSpecMasks:
    def test_abnormal_mask(self):
        spec = RegionSpec.from_bounds([(10, 19)])
        mask = spec.abnormal_mask(ds())
        assert mask.sum() == 10
        assert mask[10] and mask[19] and not mask[20]

    def test_multiple_abnormal_regions(self):
        spec = RegionSpec.from_bounds([(0, 4), (90, 94)])
        assert spec.abnormal_mask(ds()).sum() == 10

    def test_implicit_normal_is_complement(self):
        spec = RegionSpec.from_bounds([(10, 19)])
        normal = spec.normal_mask(ds())
        assert normal.sum() == 90
        assert not normal[15]

    def test_explicit_normal_limits_rows(self):
        spec = RegionSpec.from_bounds([(10, 19)], normal=[(50, 59)])
        normal = spec.normal_mask(ds())
        assert normal.sum() == 10
        # rows in neither region are ignored
        assert not normal[0] and not normal[99]

    def test_explicit_normal_excludes_abnormal_overlap(self):
        spec = RegionSpec.from_bounds([(10, 19)], normal=[(15, 24)])
        normal = spec.normal_mask(ds())
        assert normal.sum() == 5  # 20..24 only

    def test_validate_accepts_good_spec(self):
        RegionSpec.from_bounds([(10, 19)]).validate(ds())

    def test_validate_rejects_empty_abnormal(self):
        spec = RegionSpec.from_bounds([(1000, 2000)])
        with pytest.raises(ValueError):
            spec.validate(ds())

    def test_validate_rejects_empty_normal(self):
        spec = RegionSpec.from_bounds([(0, 99)])
        with pytest.raises(ValueError):
            spec.validate(ds())

    def test_validate_rejects_out_of_bounds_abnormal(self):
        spec = RegionSpec.from_bounds([(10, 19), (500, 600)])
        with pytest.raises(ValueError, match="outside the dataset time span"):
            spec.validate(ds())

    def test_validate_rejects_normal_abnormal_overlap(self):
        spec = RegionSpec.from_bounds([(10, 19)], normal=[(15, 30)])
        with pytest.raises(ValueError, match="overlaps abnormal region"):
            spec.validate(ds())

    def test_validate_accepts_touching_span_edge(self):
        # partially out-of-bounds but intersecting the span is fine
        RegionSpec.from_bounds([(90, 150)]).validate(ds())


class TestPerturbation:
    def test_perturbed_widens_all(self):
        spec = RegionSpec.from_bounds([(10, 20), (50, 60)]).perturbed(0.1)
        assert spec.abnormal[0].start == 9.0
        assert spec.abnormal[1].end == 61.0

    def test_perturbed_keeps_normal(self):
        spec = RegionSpec.from_bounds([(10, 20)], normal=[(40, 50)])
        assert spec.perturbed(0.1).normal == spec.normal

    def test_sliced_length(self):
        rng = np.random.default_rng(0)
        spec = RegionSpec.from_bounds([(10, 60)]).sliced(2.0, rng)
        region = spec.abnormal[0]
        assert region.duration == pytest.approx(2.0)
        assert 10.0 <= region.start and region.end <= 60.0

    def test_sliced_short_region_untouched_length(self):
        rng = np.random.default_rng(0)
        spec = RegionSpec.from_bounds([(10, 11)]).sliced(5.0, rng)
        region = spec.abnormal[0]
        assert region.start == 10.0 and region.end == 11.0
