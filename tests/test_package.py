"""The package namespace: a docstring and a version, no re-exports; the
exceptions its modules define; and no top-level name that only tests use."""

import ast
import importlib
import os
import pickle

import msconv

SUBMODULES = ("autograd", "block", "cli", "data", "metrics", "model", "msct",
              "tensor", "train", "viz")


def test_train_module_is_not_shadowed():
    """``import msconv.train as m`` binds the module, not a function."""
    import msconv.train as m
    assert m is importlib.import_module("msconv.train")
    assert hasattr(m, "RunConfig") and callable(m.train)


def test_package_re_exports_nothing():
    public = {name for name in vars(msconv) if not name.startswith("_")}
    assert public <= set(SUBMODULES)
    assert msconv.__version__ == "0.1.0"


def test_every_exception_pickles():
    """Every exception class of the package keeps its type and message
    across a pickle round trip, as a helper process's error reaches its
    caller."""
    classes = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"msconv.{name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) \
                    and obj.__module__ == module.__name__:
                classes[obj.__name__] = obj
    assert sorted(classes) == [
        "ConfigError", "FormatError", "GradientCheckError", "NonFiniteError",
        "ShapeError", "TapeReuseError", "TrainingDivergedError",
        "UnsupportedConfigError"]
    for name, cls in classes.items():
        err = (cls(3, 7, [4, 1, 9]) if name == "TrainingDivergedError"
               else cls(f"{name} at image 11"))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)


# Names no code outside the tests calls, kept on purpose.
UNCALLED_NAMES = {
    "block.equivalence_check": "the README names it as the block's oracle",
    "tensor.set_debug_checks": "the tests turn the tape's finiteness check "
                               "on with it",
}


def _code_names(tree: ast.AST) -> set[str]:
    """Identifiers the code of ``tree`` reads: names, attributes, and string
    constants that spell one (perfbench binds call sites by name), with
    docstrings left out; comments never reach the tree."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in docstrings:
            names.add(node.value)
    return names


def _top_level_names(tree: ast.Module) -> list[str]:
    """Functions, classes and constants a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_top_level_name_is_used_outside_the_tests():
    """Each top-level function, class and constant of every msconv module is
    named by code in its own module beyond its definition, in another
    module, or in perfbench/; the tests alone do not keep a name alive."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = [os.path.join(root, "perfbench", f)
             for f in sorted(os.listdir(os.path.join(root, "perfbench")))
             if f.endswith(".py")]
    modules = {name: os.path.join(root, "src", "msconv", f"{name}.py")
               for name in SUBMODULES}
    trees = {}
    for path in [*modules.values(), *paths]:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read())
    used = set().union(*map(_code_names, trees.values()))
    unused = {f"{module}.{name}" for module, path in modules.items()
              for name in _top_level_names(trees[path]) if name not in used}
    dead = sorted(unused - set(UNCALLED_NAMES))
    assert not dead, f"no code outside the tests names {dead}"
    assert sorted(set(UNCALLED_NAMES) - unused) == []
