"""JMake reproduction: dependable compilation for kernel janitors.

Reproduction of Lawall & Muller, *JMake: Dependable Compilation for
Kernel Janitors* (DSN 2017), with every substrate implemented in pure
Python. See README.md for a tour and DESIGN.md for the inventory.

Callers import from :mod:`repro.api`, the one public surface; the
subpackages define the implementation and re-export nothing:

>>> from repro import api
>>> tree = api.generate_tree()
>>> session = api.CheckSession.from_generated_tree(tree)

and, for the evaluation pipeline:

>>> corpus = api.build_corpus(api.CorpusSpec(eval_commits=100))
>>> result = api.EvaluationSession(corpus).run()
"""

__version__ = "1.0.0"
