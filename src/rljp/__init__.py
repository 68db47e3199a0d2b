"""Rule-learning legal judgment prediction engine.

Learns first-order-logic judgment rules from precedents, refines them on
confusable cases via a weighted optimization tree with contrastive feedback,
and predicts (article, charge, prison term) judgments by applying the
optimized rules over prescreened candidate labels.

The package exports nothing itself; import from its submodules, such as
`rljp.fol` or `rljp.pipeline`.
"""

__version__ = "0.1.0"
