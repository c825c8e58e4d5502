"""Zero-shot NER evaluation and inference toolkit.

Builds tiered benchmarks (in-domain / out-of-domain / unseen entity types)
from BIO corpora, renders one-tag-per-call prompts optionally steered by
per-tag definitions and guidelines, runs them against any chat-completions
endpoint (or deterministic mocks), and scores the replies with entity-level
micro-F1.
"""

__version__ = "0.1.0"
