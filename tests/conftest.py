import re
import warnings

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "sobranch",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sobranch")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport():
    # hypothesis touches a deprecated mypy_extensions name while it reports a
    # failing example; under -W error that warning would end the run in an
    # INTERNALERROR instead of naming the failed test
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
        )
        return (yield)


_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_results: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _ACCEPTANCE.search(report.nodeid)
    if m:
        _results[int(m.group(1))] = (m.group(2), report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        slug, outcome = _results[num]
        label = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(
            "criterion %2d: %-4s  %s" % (num, label, slug.replace("_", " "))
        )
