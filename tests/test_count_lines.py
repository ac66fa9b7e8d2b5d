"""``benchmarks/count_lines.py``: what counts as a code line."""

import textwrap

from benchmarks import count_lines

SOURCE = textwrap.dedent('''\
    """Module docstring,
    two lines."""

    import os  # a trailing comment keeps the line

    # a comment-only line


    class Thing:
        """One line."""

        def method(self):
            """Three
            lines
            of docstring."""
            text = """not a docstring:
            an assignment"""
            return (text,
                    os.sep)
    ''')


def test_code_lines_skip_blanks_comments_and_docstrings():
    raw, code = count_lines.count(SOURCE)
    assert raw == 19
    # import, class, def, the two-line assignment, the two-line return.
    assert code == 7


def test_a_file_of_only_a_docstring_has_no_code():
    assert count_lines.count('"""Just this."""\n') == (1, 0)


def test_packages_are_the_directories_under_src_repro():
    assert count_lines.package_of("src/repro/net/stream.py") == "net"
    assert count_lines.package_of(
        "src/repro/services/tokens/shard.py") == "services"
    assert count_lines.package_of("src/repro/world.py") == "repro"


def test_the_report_sums_packages_and_prints_deltas():
    now = {"net": (10, 6), "repro": (5, 2)}
    then = {"net": (12, 7), "gone": (3, 1)}
    lines = count_lines.report(now, then)
    assert lines[0].split() == ["package", "raw", "code", "raw", "+/-",
                                "code", "+/-"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows["gone"] == ["0", "0", "-3", "-1"]
    assert rows["net"] == ["10", "6", "-2", "-1"]
    assert rows["repro"] == ["5", "2", "+5", "+2"]
    assert rows["total"] == ["15", "8", "+0", "+0"]
    assert count_lines.report(now)[-1].split() == ["total", "15", "8"]
