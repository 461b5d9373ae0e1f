import pytest

from mbmlat import core, enumeration

_acceptance_lines: dict[str, str] = {}


@pytest.fixture(scope="session")
def U():
    return core.make_lattice([[0, 1], [1, 0]], "U")


@pytest.fixture(scope="session")
def UA():
    return core.make_lattice(core.direct_sum(core.U_GRAM, [[-2]]), "U+A1m2")


@pytest.fixture(scope="session")
def UAA():
    return core.make_lattice(core.direct_sum(core.U_GRAM, [[-2]], [[-2]]), "U+A1m2+A1m2")


@pytest.fixture(scope="session")
def UAAA():
    return core.make_lattice(core.direct_sum(core.U_GRAM, [[-2]], [[-2]], [[-2]]), "U+3A1m2")


@pytest.fixture(scope="session")
def I12():
    return core.make_lattice(core.direct_sum([[1]], [[-1]], [[-1]]), "I12")


@pytest.fixture(scope="session")
def P22():
    return core.make_lattice(core.direct_sum([[2]], [[-2]]), "A1p2+A1m2")


@pytest.fixture(scope="session")
def K3():
    return core.make_lattice(
        core.direct_sum(core.U_GRAM, core.U_GRAM, core.U_GRAM, core.E8_MINUS_GRAM, core.E8_MINUS_GRAM),
        "K3",
    )


@pytest.fixture
def fincke_pohst():
    """Forget every certified chamber, so that each wall search in the test
    runs the Fincke-Pohst kernel, whatever earlier tests certified."""
    enumeration._chambers.clear()


def record_acceptance(name: str, line: str) -> None:
    _acceptance_lines[name] = line


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.outcome == "passed" else report.outcome.upper()
    detail = _acceptance_lines.get(name, "")
    _acceptance_lines[name] = f"{status}  {name}" + (f"  [{detail}]" if detail else "")


def pytest_terminal_summary(terminalreporter):
    lines = [v for v in _acceptance_lines.values() if v.startswith(("PASS", "FAIL", "ERROR", "SKIP"))]
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines, key=lambda s: s.split()[1]):
            terminalreporter.write_line(line)
