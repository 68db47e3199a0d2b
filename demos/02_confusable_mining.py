"""Mining hard negatives: embed case facts, rank cross-label cosine
similarity, and assemble a confusable validation set.

Run from the repository root:  python3 demos/02_confusable_mining.py
"""

from rljp.confusable import (
    HashingEmbedder,
    build_confusable_set_from_embeddings,
    cosine_similarity_matrix,
    embed_cases,
)
from rljp.corpus import Judgment, LegalCase
from rljp.fol import ArticleCharge


def case(case_id, fact, article, charge):
    return LegalCase(case_id, fact, Judgment(article, charge, "lt_6m"))


thefts = [
    case("t1", "The defendant quietly took a phone from the victim's bag.", "264", "theft"),
    case("t2", "The defendant quietly took cash from an unlocked office desk.", "264", "theft"),
]
others = [
    case("r1", "The defendant took a phone from the victim after shoving him.", "263", "robbery"),
    case("r2", "The defendant took cash from a clerk while brandishing a pipe.", "263", "robbery"),
    case("f1", "The defendant sold fake concert tickets online to dozens of buyers.", "266", "fraud"),
]

embedder = HashingEmbedder(dim=256)

print("== embeddings (character 3-grams, feature hashed, unit norm) ==")
emb_pos = embed_cases(thefts, embedder)
emb_oth = embed_cases(others, embedder)
print("positives:", emb_pos.vectors.shape, "others:", emb_oth.vectors.shape)

print()
print("== cosine similarity matrix (rows: thefts, cols: others) ==")
sim = cosine_similarity_matrix(emb_pos, emb_oth)
header = "      " + "  ".join(f"{c:>6}" for c in emb_oth.case_ids)
print(header)
for row_id, row in zip(emb_pos.case_ids, sim):
    print(f"{row_id:>4}  " + "  ".join(f"{v:6.3f}" for v in row))

print()
print("== confusable set for target (264, theft) ==")
conf = build_confusable_set_from_embeddings(
    emb_pos, emb_oth, thefts, others, 2, target=ArticleCharge("264", "theft")
)
for negative in conf.negatives:
    print(
        f"  hard negative {negative.case_id} ({negative.judgment.charge_id}), "
        f"similarity {conf.negative_similarity[negative.case_id]:.3f}"
    )
print("  validation set:", [c.case_id for c in conf.validation_cases()])
print()
print("Robbery facts shadow theft facts almost verbatim, so they surface as")
print("the hard negatives; the fraud case never makes the cut.")
