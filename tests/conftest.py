"""Shared fixtures and reporting hooks for the test suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from casimir_plates import DrudeParams, Material, PermittivityTable, material_preset


@pytest.fixture(scope="session")
def au() -> Material:
    return material_preset("au")


@pytest.fixture(scope="session")
def cu() -> Material:
    return material_preset("cu")


@pytest.fixture(scope="session")
def al() -> Material:
    return material_preset("al")


def make_table_material(
    name: str = "tab",
    zeta=(1e12, 1e16),
    eps=(1e6, 1.5),
    fallback: DrudeParams | None = None,
) -> Material:
    """A tabulated material for tests; default knots are a steep metal-like drop."""
    table = PermittivityTable(
        zeta=np.asarray(zeta, dtype=float),
        eps=np.asarray(eps, dtype=float),
        fallback=fallback,
    )
    return Material(name=name, model=table)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # echo the per-criterion verdict lines collected by the acceptance module,
    # then the kernel counters of the anchor grid and the standard sweep
    # collected by the lifshitz module
    criteria = getattr(sys.modules.get("test_acceptance"), "CRITERION_LINES", {})
    lines = [criteria[n] for n in sorted(criteria)]
    lines += getattr(sys.modules.get("test_lifshitz"), "COUNTER_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
