"""Shared fixtures: the worked example, seeded element pools, acceptance log."""

import pytest

import probes


@pytest.fixture(scope="session")
def example():
    return probes.worked_example()


@pytest.fixture(scope="session")
def class_pool():
    return probes.class_pool()


@pytest.fixture(scope="session")
def generic_pool():
    return probes.generic_pool()


@pytest.fixture(scope="session")
def signed_zero_inputs():
    return probes.signed_zero_inputs()


ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion for the terminal summary."""

    def record(criterion: str, ok: bool, detail: str = "") -> bool:
        tail = f"  ({detail})" if detail else ""
        ACCEPTANCE_LINES.append(
            f"criterion {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # the sampler's bits and the goldens follow numpy's dot kernel, so a
    # golden mismatch on one Python version can be traced to its BLAS
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    terminalreporter.write_line(
        f"numpy {numpy.__version__}, BLAS {blas['name']}")
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
