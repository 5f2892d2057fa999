import numpy as np
import pytest

from oblique import moore_penrose
from oblique.errors import BallError, UnknownSuite
from oblique.suites import SUITE_NAMES, run_suite, sample_inside


@pytest.mark.parametrize("name", ["thm1_1", "thm1_2", "thm1_5"])
def test_randomized_suites_pass(name):
    report = run_suite(name, trials=60, seed=5)
    assert report.failures == 0
    assert len(report.outcomes) == 60


def test_thm1_1_reports_decisive_margins():
    report = run_suite("thm1_1", trials=80, seed=2)
    assert report.summary["indecisive"] == 0
    assert report.summary["min_decisive_margin"] >= 1e-7


def test_thm1_4_suite():
    report = run_suite("thm1_4", trials=5, seed=1)
    assert report.failures == 0
    names = {o["check"] for o in report.outcomes}
    assert "rank_jump_fails_everywhere" in names


def test_section4_suite():
    report = run_suite("section4", trials=20, seed=8)
    assert report.failures == 0


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


def test_reports_are_reproducible():
    a = run_suite("thm1_2", trials=40, seed=13).to_dict()
    b = run_suite("thm1_2", trials=40, seed=13).to_dict()
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_suite_registry_is_complete():
    assert set(SUITE_NAMES) == {"thm1_1", "thm1_2", "thm1_4", "thm1_5", "frobenius", "section4", "all"}


def test_inside_sampler_fails_loudly():
    a = np.diag([1.0, 0.5, 0.0])
    with pytest.raises(BallError):
        sample_inside(np.random.default_rng(3), a, moore_penrose(a), fraction=0.0)


def test_report_keys_keep_their_order_and_sub_reports_only_at_the_top():
    d = run_suite("all", trials=2).to_dict()
    assert list(d) == ["suite", "seed", "trials", "config", "outcomes", "summary", "timestamp", "sub_reports"]
    assert next(iter(d["summary"])) == "failures"
    for sub in d["sub_reports"]:
        assert list(sub) == list(d)[:-1]
        assert next(iter(sub["summary"])) == "failures"
