"""Shared pytest plumbing: the acceptance suite registers one PASS/FAIL line
per criterion and the lines are echoed in the terminal summary, so they are
visible regardless of output capture. The header names the training step
that runs; `each_backend` runs a test body once per step. Every test gets an
empty CSV parse cache of its own, never the user's, and ends with the
`kernel.library` it began with."""
from unittest import mock

import pytest

from devdan import csv_cache as csv_cache_module
from devdan import kernel, step_backend

pytest_plugins = ["pytester"]  # the harness's own tests run a session inside one

acceptance_lines = []


@pytest.fixture(autouse=True)
def csv_cache(monkeypatch, tmp_path_factory):
    """The directory that load_csv caches parses in during the test. Suite
    workers are forked, so they inherit it."""
    folder = tmp_path_factory.mktemp("csv-cache")
    monkeypatch.setattr(csv_cache_module, "cache_dir", lambda: folder)
    return folder


@pytest.fixture(autouse=True)
def kernel_library():
    """Puts back at teardown the kernel.library the test began with. A body
    that raises inside each_backend's numpy pass leaves that generator
    suspended, and with it the patch, while the failure's frames are kept
    (as Hypothesis keeps them); every later test would take the numpy step."""
    library = kernel.library
    yield
    kernel.library = library


def pytest_report_header(config):
    return f"devdan training step: {step_backend()}"


def pytest_terminal_summary(terminalreporter):
    # again at the end, for runs whose verbosity (-q) hides the header
    terminalreporter.write_line(pytest_report_header(terminalreporter.config))
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def each_backend():
    """Runs a loop body once per training step available here: "numpy", then
    "compiled" unless the kernel is unavailable (the report header says why).
    Models should be built and trained inside the body: the numpy step runs
    while `kernel.library()` is None, but a model that has already pointed
    the compiled loop at its arrays keeps the compiled step until one of
    them is rebound."""
    with mock.patch.object(kernel, "library", lambda: None):
        yield "numpy"
    if kernel.library() is not None:
        yield "compiled"


@pytest.fixture
def compiled_step():
    """Skips the test, with the loader's reason, where the compiled step is
    unavailable."""
    if kernel.library() is None:
        pytest.skip(f"compiled step unavailable: {step_backend()}")
