"""The package's public names and README's Library examples."""

import re
from pathlib import Path
from types import ModuleType

import rht

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# one name per job: a name joins this list with a caller outside the tests
PUBLIC = {
    "ABSOLUTE", "IDEAL", "RELATIVE",
    "AlgElement", "GenSet", "Generator", "Monomial", "basis_in_degree",
    "Catalog", "enumerate_fibrations",
    "DerComplex",
    "DepthResult", "GottliebResult", "ToralCertificate",
    "connecting_images", "depth_of_subspaces", "fibre_gottlieb",
    "finiteness_window", "gottlieb", "les_check", "toral_certificate",
    "Echelon", "HomologySlice", "RatMatrix", "Subspace",
    "Cochains", "RelativeModel", "SullivanModel", "cohomology",
    "parse_document", "parse_fibration", "parse_model", "trivial_fibration",
    "Poset", "poset_of_subspaces", "render",
}  # fmt: skip


def test_public_surface_is_pinned_and_documented():
    names = {
        n for n, v in vars(rht).items() if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert names == PUBLIC
    # the benchmark reads these off the package; a module of rht is not a name
    package = Path(rht.__file__).parent
    read = {
        n
        for path in (ROOT / "perfbench").glob("*.py")
        for n in re.findall(r"\brht\.([A-Za-z]\w*)", path.read_text(encoding="utf-8"))
        if not (package / f"{n}.py").exists()
    }
    assert read and read <= PUBLIC
    undocumented = [n for n in sorted(PUBLIC) if not re.search(rf"`[^`\n]*\b{n}\b[^`\n]*`", README)]
    assert not undocumented


def test_readme_library_examples_run(monkeypatch):
    # the ```python blocks run in order in one namespace from the repo root,
    # and each print line prints the literal in its comment
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)
    printed, want = [], []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    for block in blocks:
        want += re.findall(r"^print\(.*\)\s+# (.+)$", block, re.M)
        exec(compile(block, "README.md", "exec"), namespace)
    assert printed == want == ["{7: 1}", "['w4*']", "True", "{3: 2, 7: 1}", "2"]
