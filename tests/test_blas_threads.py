"""The bit-for-bit reference checks, run again on four BLAS threads.

The batched GNN head and its backward, training and the pipeline's GNN
predictions, and the graph build's similarities over runs of blocks match
their per-idea, per-item, two-pass and per-node references bit for bit
only while BLAS runs one gemv per row the same way at any thread count.
The build's causal path (negative injection) takes each block's
similarities over the rows up to that block's own end, not over one
longer prefix shared by blocks: a gemv over a longer prefix can change
the last bit of a sum; ``TestInject`` checks one-pass injection against
one negative at a time, and ``TestInjectRelations`` (which ``TestInject``
selects too) a hybrid graph's injection against the per-pair and
per-node references. The stub embedding's rows divide by norms taken
as one dot product per row, as ``np.linalg.norm`` takes each row's.

The selection runs in a child ``pytest`` with ``OPENBLAS_NUM_THREADS=4``,
as BLAS reads its thread count once, when numpy is loaded. Each name must
select at least one test, so a renamed reference cannot drop out of the
selection unnoticed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent
FILES = ["test_embedding.py", "test_gnn.py", "test_graph.py", "test_novelty.py", "test_pipeline.py"]
REFERENCES = ["two_pass", "TestAgainstPerTextStub", "TestAgainstPerIdeaHead", "TestAgainstTwoPassTraining",
              "TestAgainstEdgeTensorReference", "TestAgainstPerNodeArgsort", "TestAgainstPerPairWeights", "TestInject"]


def test_bit_for_bit_references_hold_on_four_blas_threads():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "4", "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *(str(TESTS / f) for f in FILES),
         "-k", " or ".join(REFERENCES)],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
    passed = [line.lower() for line in re.findall(r"^PASSED (.+)$", child.stdout, re.MULTILINE)]
    unselected = [name for name in REFERENCES if not any(name.lower() in test for test in passed)]
    assert not unselected, f"names that select no test: {unselected}"
