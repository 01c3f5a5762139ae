"""Planted faults: each one must make a named test fail.

A plant is one fault written into a copy of the package: an exact snippet
of a file under src/rht/, which must occur there exactly once, and its
replacement.  For each plant this script copies src/ to a temporary
directory, applies the replacement, and runs pytest on the plant's node IDs
with -x -q -p no:cacheprovider and the copy first on the path:

    python tests/plants.py   # exit 1 when a plant survives or is stale

A plant survives when its node IDs all pass: the tests no longer see the
fault it stands for.  A snippet found zero times or more than once, or a
pytest run that ends in anything but failed tests (a node ID not found, a
collection error), fails the check too, so the list cannot go stale.  It
uses the standard library and pytest alone, and its checks are explicit,
not assert, so they hold under python -O as well.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


class Plant(NamedTuple):
    path: str  # a file under src/rht/
    snippet: str  # occurs there exactly once
    replacement: str
    nodes: tuple[str, ...]  # pytest node IDs, one of which must fail
    reason: str  # the fault the plant stands for


PLANTS = (
    Plant(
        "model.py",
        "return self.gens._layout, frozenset((i, frozenset(terms)) for i, terms in self.images.items())",
        "return self.gens._layout, frozenset()",
        (
            "tests/test_catalog.py::test_catalog_rejects_fiber_mismatch",
            "tests/test_catalog.py::test_realized_subspaces_build_each_part_once",
        ),
        "a model's value without its d: fibres or bases that differ in d alone count as one",
    ),
    Plant(
        "model.py",
        "frozenset((i, frozenset(terms)) for i, terms in self.images.items())",
        "frozenset(self.images.items())",
        ("tests/test_catalog.py::test_catalog_rejects_fiber_mismatch",),
        "a model's value keeps the order of d's terms: one d written two ways counts as two",
    ),
    Plant(
        "derivations.py",
        "key = (scope, self.domain, self.model.gens, self.model.bound)",
        "key = (scope, self.domain, self.model.gens, None)",
        ("tests/test_cli.py::test_fibre_sharing_never_crosses_fibres",),
        "one layout's slices, homology and images shared across two bounds within a CLI call",
    ),
    Plant(
        "derivations.py",
        "key = (scope, self.domain, self.model.gens, self.model.bound)",
        "key = (scope, None, self.model.gens, self.model.bound)",
        ("tests/test_cli.py::test_layout_sharing_never_crosses_layouts",),
        "one layout's slices and positions shared across two splits of its generators",
    ),
    Plant(
        "derivations.py",
        "value = _shared.setdefault((*key, self.model._value), value)",
        "value = _shared.setdefault((*key, self.model.gens), value)",
        ("tests/test_cli.py::test_layout_sharing_never_crosses_layouts",),
        "one layout's boundaries and homology shared across two models that differ in d alone",
    ),
    Plant(
        "invariants.py",
        "per = cx._images.get(top)",
        "per = next(iter(cx._images.values()), None)",
        ("tests/test_invariants.py::test_one_shared_dict_gives_what_fresh_calls_give",),
        "the evaluation images kept without their top degree: a call's second top degree reads the first's",
    ),
    Plant(
        "catalog.py",
        "at := (entry.base._value, entry.bound)",
        "at := (entry.base.gens, entry.bound)",
        ("tests/test_catalog.py::test_realized_subspaces_build_each_part_once",),
        "a catalog groups the twists of bases that differ in d alone",
    ),
    Plant(
        "invariants.py",
        "for r, pure in relations:",
        "for r, pure in relations[:-1]:",
        ("tests/test_invariants.py::test_pure_quotient_certificate_is_sound",),
        "the pure quotient drops a relation, so it can certify an infinite H finite",
    ),
    Plant(
        "algebra.py",
        "compiled.append((key, key & odd, mask, c))",
        "compiled.append((key, key & odd, mask ^ 1, c))",
        (
            "tests/test_algebra.py::test_leibniz_matches_dense_oracle",
            "tests/test_algebra.py::test_kernel_matches_dense_oracle_on_every_monomial",
        ),
        "a flipped Koszul mask bit in the compiled differential",
    ),
    Plant(
        "catalog.py",
        "    if not any(acc[k] for k in complete[u]):\n        return added",
        "    if True:\n        return added",
        ("tests/test_catalog.py::test_closure_search_visits_few_nodes",),
        "the closure search lets a vector with D.D != 0 through",
    ),
    Plant(
        "linalg.py",
        "            if self._d_out.apply(v):",
        "            if False:",
        (
            "tests/test_linalg.py::test_homology_classes",
            "tests/test_invariants.py::test_les_check_names_the_node_of_an_image_that_is_no_cycle",
        ),
        "classes takes a vector that is no cycle",
    ),
)


def apply(src: Path, plant: Plant) -> Optional[str]:
    """Write the plant into the copy src of src/; a message when its snippet
    does not occur exactly once."""
    path = src / "rht" / plant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(plant.snippet)
    if count != 1:
        return f"its snippet occurs {count} times in src/rht/{plant.path}"
    path.write_text(text.replace(plant.snippet, plant.replacement), encoding="utf-8")
    return None


def run(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    """python args from the repository root, with src first on the path."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def check(src: Path, plant: Plant) -> Optional[str]:
    """None when the plant is killed: its tests fail on the planted copy src."""
    problem = apply(src, plant)
    if problem is not None:
        return problem
    imported = run(src, ["-c", "import rht, sys; sys.stdout.write(rht.__file__)"]).stdout
    if not Path(imported).is_relative_to(src):
        return f"the tests import rht from {imported or 'nowhere'}, not from the planted copy"
    done = run(src, ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *plant.nodes])
    if done.returncode == 1:  # a test failed
        return None
    if done.returncode == 0:
        return "survives: every node ID passes"
    tail = "\n    ".join(done.stdout.strip().splitlines()[-3:])
    return f"pytest ended with exit status {done.returncode}:\n    {tail}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, plant in enumerate(PLANTS):
            src = Path(tmp) / str(i)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            problem = check(src, plant)
            if problem is not None:
                failed += 1
                print(f"src/rht/{plant.path}: {plant.reason}: {problem}", file=sys.stderr)
    if failed:
        return 1
    print(f"{len(PLANTS)} of {len(PLANTS)} plants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
