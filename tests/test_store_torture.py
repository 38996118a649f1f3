"""Crash torture for the SQLite recorder: SIGKILL mid-batch-append.

A writer subprocess appends fixed-size batches to a SQLite store while
the parent SIGKILLs it at randomized (seeded) points.  After every kill
the reopened store must show a *clean prefix*: dense notification ids,
a whole number of batches (batch appends are one transaction — a kill
can lose the in-flight batch, never tear it), and payloads exactly
matching the expected sequence.  The writer is then relaunched until it
completes, and the final log must be identical to an uninterrupted run's.
"""

import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.store import open_store

BATCH = 7
TOTAL_BATCHES = 400

#: The torture writer: resumes from the store's own high-water mark, so
#: relaunching after a kill continues instead of duplicating batches.
WRITER = textwrap.dedent(
    """
    import sys
    import time

    from repro.store import open_store

    path, total_batches, batch = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    store = open_store(path)
    done = store.max_id() // batch
    for index in range(done, total_batches):
        store.recorder.append(
            [("record", {"batch": index, "item": item})
             for item in range(batch)]
        )
        time.sleep(0.001)
    store.close()
    print("WRITER-DONE", flush=True)
    """
)


def _expected_payloads(batches):
    return [
        {"batch": index, "item": item}
        for index in range(batches)
        for item in range(BATCH)
    ]


def _assert_clean_prefix(path: Path):
    """Dense ids, whole batches, payloads matching the expected prefix."""
    with open_store(path) as store:
        notifications = store.select()
        ids = [n.id for n in notifications]
        assert ids == list(range(1, len(ids) + 1))
        assert len(ids) % BATCH == 0, (
            "a SIGKILL mid-append tore a transactional batch"
        )
        payloads = [n.payload for n in notifications]
        assert payloads == _expected_payloads(len(ids) // BATCH)
    return len(ids) // BATCH


@pytest.mark.parametrize("seed", (0, 1))
def test_sigkill_mid_append_leaves_a_clean_resumable_log(tmp_path, seed):
    rng = random.Random(seed)
    script = tmp_path / "writer.py"
    script.write_text(WRITER)
    path = tmp_path / "torture.sqlite"
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")

    def launch():
        return subprocess.Popen(
            [sys.executable, str(script), str(path),
             str(TOTAL_BATCHES), str(BATCH)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    kills = 0
    completed = False
    for _ in range(25):  # far more attempts than kills we want
        writer = launch()
        if kills < 3:
            # kill at a randomized boundary while batches are in flight
            time.sleep(rng.uniform(0.02, 0.20))
            if writer.poll() is None:
                writer.send_signal(signal.SIGKILL)
                writer.wait(timeout=30)
                kills += 1
                _assert_clean_prefix(path)
                continue
        out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        assert "WRITER-DONE" in out
        completed = True
        break
    assert completed, "torture writer never ran to completion"
    assert kills >= 1, "no kill landed mid-run; torture exercised nothing"

    # resumed-to-completion log == an uninterrupted run's log
    batches = _assert_clean_prefix(path)
    assert batches == TOTAL_BATCHES
    clean = tmp_path / "clean.sqlite"
    done = subprocess.run(
        [sys.executable, str(script), str(clean),
         str(TOTAL_BATCHES), str(BATCH)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open_store(path) as tortured, \
            open_store(clean) as reference:
        assert [(n.id, n.kind, n.payload) for n in tortured.select()] == \
            [(n.id, n.kind, n.payload) for n in reference.select()]
