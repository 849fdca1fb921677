"""Every public name in the library has a caller, and no module imports a
name it does not use.

A public def, class or method of src/svoa counts as called when its name
is read somewhere other than its own definition: elsewhere in src/svoa, in
perfbench/*.py or in README.md's code.  The package's re-exports in
__init__.py count for nothing, since a re-export alone is not a caller.
Names are matched by name alone, read from the syntax tree: a function or
class as a Name, an attribute or an imported name, a method as an
attribute (or as Class.method in README).
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "svoa")

# kept without a caller in src, perfbench or README, one reason each
ALLOWED = {
    "QSeries.pow_rational": "perfbench/tracing.py traces it by its name in TARGETS",
    "Cyclo.num": "perfbench/tracing.py reads it by getattr to size coefficients",
    "QSeries.from_json": "reads the series JSON format that README documents",
    "MultiPoly.from_json": "reads the polynomial JSON format that README documents",
    "hw_enumerator": "README's module table lists highest-weight enumeration",
    "decompose_character": "the inverse of the extremal solve; ROADMAP plans a CLI caller",
    "svoa_character": "README's module table lists theta/eta^n characters; "
                      "ROADMAP plans a CLI caller",
}


def _read(path):
    with open(path) as f:
        return f.read()


def _modules():
    return {name[:-3]: ast.parse(_read(os.path.join(SRC, name)))
            for name in sorted(os.listdir(SRC)) if name.endswith(".py")}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, node) for each module-level def and class and each
    method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(node.name + "." + item.name, item) for item in node.body
                    if isinstance(item, ast.FunctionDef) and _public(item.name)]
    return out


def _reads(tree, skip=None):
    """(names, attributes) a tree reads outside the subtree `skip`; the names
    hold every Name, imported name and attribute."""
    names, attrs = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names | attrs, attrs


def _readme_reads(path):
    """(identifiers, Class.method pairs) in the code spans and blocks of a
    Markdown file: every other piece between backticks (a fence's three
    keep the parity)."""
    code = " ".join(_read(path).split("`")[1::2])
    tokens = "".join(ch if ch.isalnum() or ch in "_." else " " for ch in code).split()
    return ({w for t in tokens for w in t.split(".")},
            {".".join(t.split(".")[-2:]) for t in tokens if "." in t})


def _uncalled():
    """(module, qualified name) of each public definition nothing reads: a
    function or class by any name, a method by attribute or as Class.method
    in README."""
    modules = _modules()
    readme_names, readme_methods = _readme_reads(os.path.join(ROOT, "README.md"))
    bench = os.path.join(ROOT, "perfbench")
    bench_reads = [_reads(ast.parse(_read(os.path.join(bench, name))))
                   for name in sorted(os.listdir(bench)) if name.endswith(".py")]
    uncalled = []
    for module, tree in modules.items():
        others = bench_reads + [_reads(other) for name, other in modules.items()
                                if name not in ("__init__", module)]
        for qualname, node in _definitions(tree):
            reads = others + [_reads(tree, skip=node)]
            if "." in qualname:
                called = (qualname in readme_methods
                          or any(node.name in attrs for _, attrs in reads))
            else:
                called = (node.name in readme_names
                          or any(node.name in names for names, _ in reads))
            if not called:
                uncalled.append((module, qualname))
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = _uncalled()
    missing = [m + "." + q for m, q in uncalled if q not in ALLOWED]
    assert not missing, "public names with no caller: " + ", ".join(missing)
    # an allowed name that found a caller leaves the list
    stale = sorted(set(ALLOWED) - {q for _, q in uncalled})
    assert not stale, "allowed but called: " + ", ".join(stale)


def test_no_module_imports_an_unused_name():
    unused = []
    for module, tree in _modules().items():
        if module == "__init__":
            continue  # the package's imports are its exports
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
            elif isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno
                                 for a in node.names})
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s.py:%d %s" % (module, line, name)
                   for name, line in imported.items() if name not in read]
    assert not unused, "imported but unused: " + ", ".join(sorted(unused))
