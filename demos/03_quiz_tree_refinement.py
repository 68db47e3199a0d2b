"""One target's full refinement loop: quiz the initial rule on confusable
cases, derive a keep/improve direction from the mistakes, rewrite the rule,
and watch the optimization tree pick the stronger version.

Everything runs offline against the bundled synthetic world's oracle agent.

Run from the repository root:  python3 demos/03_quiz_tree_refinement.py
"""

from pathlib import Path

from rljp.agents import Agent
from rljp.cacl import optimize_rule
from rljp.confusable import HashingEmbedder, build_confusable_set_from_embeddings, embed_cases
from rljp.corpus import Judgment, LegalCase, load_label_space
from rljp.fol import ArticleCharge, parse_rule, render_rule
from rljp.opt_tree import new_tree, optimize
from rljp.quiz import make_quiz
from rljp.synthetic import OracleAgent, SyntheticWorld, generate_corpus

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "synthetic_60"

world = SyntheticWorld.load(FIXTURES / "world.json")
labels = load_label_space(FIXTURES / "labels.json")
agent = Agent(OracleAgent(world))
target = ArticleCharge("264", "theft")

rows, _, _ = generate_corpus(60, seed=3)
cases = [
    LegalCase(
        r["case_id"],
        r["fact"],
        Judgment(
            r["meta"]["relevant_articles"][0],
            r["meta"]["accusation"][0],
            r["meta"]["term_bucket"][0],
        ),
    )
    for r in rows
]
positives = [c for c in cases if c.judgment.charge_id == "theft"][:4]
others = [c for c in cases if c.judgment.charge_id != "theft"]

print("== quiz over the confusable set ==")
embedder = HashingEmbedder()
conf = build_confusable_set_from_embeddings(
    embed_cases(positives, embedder),
    embed_cases(others, embedder),
    positives,
    others,
    len(positives),
    target=target,
)
print("positives:", [c.case_id for c in conf.positives])
print("negatives:", [c.case_id for c in conf.negatives],
      "(all robbery cases: same coarse circumstances, different outcome)")
questions = make_quiz(conf, labels, num_options=4, seed=50)

print()
print("== optimization tree ==")
root_rule = parse_rule(world.root_rule_text(target), rule_id="article=264,charge=theft/0/0")
print("initial rule:", render_rule(root_rule))

tree = new_tree(root_rule)


def rewrite(rule, result, child_id):
    return optimize_rule(
        rule, result, agent, labels, child_rule_id=child_id,
        tag_prefix="cacl/article=264,charge=theft",
    )


best = optimize(
    tree, questions, agent, rewrite=rewrite, defined_score=0.9, max_iterations=5
)

for node_id, node in tree.nodes.items():
    marker = " <-- best" if node_id == tree.max_pointer else ""
    print(f"  node {node_id}: weight {node.weight:.3f}{marker}")
    print(f"    {render_rule(node.rule)}")
print()
print("returned rule:", render_rule(best))
print(
    "The coarse-only rule answers 'theft' on every confusable case (score "
    f"{tree.nodes[tree.root_id].weight:.2f}); the rewrite adds the"
)
print("distinguishing circumstance, separating the siblings completely.")
