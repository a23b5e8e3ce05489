"""Both views of every committed baseline ledger, rendered without training.

A view is built once and written by one markdown writer and one HTML
writer (DESIGN.md decision 25), so the two formats must carry the same
headings, the HTML must stay self-contained, and a render must be a pure
function of the ledger.
"""

import html
import re
from pathlib import Path

import pytest

from repro.obsv import load_ledger, run_report, xray_timeline
from repro.xray import xray_report

BASELINES = sorted(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "out" / "baselines").glob("*.ledger")
)
VIEWS = {"report": run_report, "xray": xray_report}
CASES = [(path, view) for path in BASELINES for view in VIEWS]


def _id(case):
    return case.stem if isinstance(case, Path) else case


def _headings(view):
    """``(level, text)`` of every heading, from the markdown and from the HTML."""
    md = [(len(hashes), text) for hashes, text in re.findall(r"^(#{1,2}) (.+)$", view.markdown(), re.M)]
    page = [(int(level), html.unescape(text)) for level, text in re.findall(r"<h([12])>(.*?)</h\1>", view.html())]
    return md, page


def test_every_committed_baseline_is_rendered():
    assert len(BASELINES) == 6
    assert any(xray_timeline(load_ledger(path)) for path in BASELINES)


@pytest.mark.parametrize("path,view", CASES, ids=_id)
def test_markdown_and_html_carry_the_same_headings(path, view):
    md, page = _headings(VIEWS[view](load_ledger(path)))
    assert md == page
    assert md[0][0] == 1 and len(md) > 1


@pytest.mark.parametrize("path,view", CASES, ids=_id)
def test_html_is_self_contained(path, view):
    page = VIEWS[view](load_ledger(path)).html()
    assert page.startswith("<!doctype html>")
    assert "<script" not in page and "http" not in page


@pytest.mark.parametrize("path,view", CASES, ids=_id)
def test_two_renders_are_byte_identical(path, view):
    first, second = (VIEWS[view](load_ledger(path)) for _ in range(2))
    assert first.markdown() == second.markdown()
    assert first.html() == second.html()


@pytest.mark.parametrize("path", BASELINES, ids=_id)
def test_the_xray_view_says_when_a_ledger_has_no_records(path):
    view = xray_report(load_ledger(path))
    says_so = ["no xray records" in view.markdown(), "no xray records" in view.html()]
    assert says_so == [not xray_timeline(load_ledger(path))] * 2
