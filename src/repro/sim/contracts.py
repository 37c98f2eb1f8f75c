"""Declared C3 scoring contract (checked by ``netrs contracts``).

:meth:`repro.selection.c3.C3Selector.select` inlines the cubic score from
:meth:`~repro.selection.c3.C3Selector.score` to save a method call per
candidate.  Their surrounding control flow differs too much for a CON001
body pair, so the formula itself is pinned by an :class:`ExprAnchor` that
must appear, normalized, at both sites -- float arithmetic is
evaluation-order sensitive, so a reordered term is drift even when the
math is equal.
"""

from __future__ import annotations

from repro.lint.contracts import AnchorSite, ContractRegistry, ExprAnchor, Site

_C3 = "src/repro/selection/c3.py"

EXPR_ANCHORS = (
    ExprAnchor(
        name="c3-cubic-score",
        expr="resp - expected_service + q_hat ** exponent * expected_service",
        sites=(
            AnchorSite(
                Site(_C3, "C3Selector.score"),
                renames=(
                    ("track.response_time", "resp"),
                    ("self.cubic_exponent", "exponent"),
                ),
            ),
            AnchorSite(
                Site(_C3, "C3Selector.select"),
                renames=(("track.response_time", "resp"),),
            ),
        ),
    ),
)

CONTRACTS = ContractRegistry(expr_anchors=list(EXPR_ANCHORS))
