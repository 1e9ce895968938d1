"""One fresh-interpreter start-up, as every ``vecport`` invocation pays it.

    python3 bench/setup_probe.py SRC_DIR CORPUS_DIR

Imports ``vecport.cli``, loads the corpus and validates every case, and
prints the three phase times as JSON. An empty CORPUS_DIR means the bundled
corpus.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import vecport.cli  # noqa: E402,F401  (timed: the import is the measurement)
from vecport.corpus import bundled_corpus_dir, load_corpus, validate_case  # noqa: E402

t1 = time.perf_counter()
listing = load_corpus(sys.argv[2] or bundled_corpus_dir())
t2 = time.perf_counter()
cases = [validate_case(m) for m in listing.manifests]
t3 = time.perf_counter()
if listing.problems or not cases:
    sys.exit(f"corpus did not load cleanly: {listing.problems}")
print(f'{{"import_s": {t1 - t0!r}, "load_s": {t2 - t1!r}, "validate_s": {t3 - t2!r}}}')
