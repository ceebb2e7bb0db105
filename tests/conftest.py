import pytest

from netattack import BaParams, generate_ba


@pytest.fixture(scope="session")
def ba10k():
    """Ten 10,000-node scale-free graphs, one per seed 0..9.

    Generated once per test session and shared, so no test may crash
    their nodes; run_attack leaves its graph as it is.
    """
    return {seed: generate_ba(BaParams(10_000, 2, seed=seed)) for seed in range(10)}


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion_report(request):
    """Collect one verdict line per acceptance criterion.

    Lines are echoed immediately (visible on failure) and replayed in
    the terminal summary so the full scorecard shows on green runs too.
    """

    def emit(line: str) -> None:
        request.config._criterion_lines.append(line)
        print(line)

    return emit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
