import pytest


def pytest_collection_modifyitems(config, items):
    # `pytest -W error` applies its filters after the configured ones, and a
    # mark's filters come after both: as marks, the configured filters hold.
    marks = [pytest.mark.filterwarnings(entry) for entry in config.getini("filterwarnings")]
    for item in items:
        for mark in marks:
            item.add_marker(mark)
