import pytest


def _first_difference(text, expected):
    got, want = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(got, want), 1):
        if a != b:
            return f"line {i} differs: {a!r} != {b!r}"
    return f"{len(got)} lines, expected {len(want)}"


def _assert_same_csv(text, expected):
    # compare first and assert the result: pytest would otherwise diff two
    # long strings on failure, which takes minutes for a large CSV
    same = text == expected
    assert same, _first_difference(text, expected)


@pytest.fixture
def assert_same_csv():
    """text == expected byte for byte; a failure names the first differing line."""
    return _assert_same_csv
