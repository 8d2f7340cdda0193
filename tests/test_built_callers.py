"""Which functions may build a group or ring without the constructors' checks."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fusionring"

# each of these builders proves in its docstring that what it builds passes
# the checks it skips, and names the helper there
ALLOWED = {
    "_built_group": {"groups.subgroup_group", "groups.quotient_group",
                     "groups.central_extensions_by_z2"},
    "_built_ring": {"catalog.pointed", "catalog.generalized_ty", "catalog.deligne_product",
                    "catalog.yl_extension"},
}


def helper_uses():
    """(helper, 'module.function', docstring) for each reference to a helper in src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    # an alias would hide the calls from the scan below
                    assert alias.name not in ALLOWED or alias.asname in (None, alias.name)
                continue
            if isinstance(node, ast.FunctionDef) and node.name in ALLOWED:
                continue   # the helper's own definition
            owner = f"{path.stem}.{getattr(node, 'name', '<module>')}"
            doc = ast.get_docstring(node) if isinstance(node, ast.FunctionDef) else None
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else \
                    sub.attr if isinstance(sub, ast.Attribute) else None
                if name in ALLOWED:
                    yield name, owner, doc or ""


def test_only_builders_with_a_proof_skip_the_checks():
    uses = list(helper_uses())
    callers = {helper: {owner for h, owner, _ in uses if h == helper} for helper in ALLOWED}
    assert callers == ALLOWED
    for helper, owner, doc in uses:
        assert helper in doc, f"{owner} calls {helper} without naming it in its proof"
