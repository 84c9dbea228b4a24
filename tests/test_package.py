"""The package namespace: a docstring and a version, no re-exports."""

import importlib

import msconv


def test_train_module_is_not_shadowed():
    """``import msconv.train as m`` binds the module, not a function."""
    import msconv.train as m
    assert m is importlib.import_module("msconv.train")
    assert hasattr(m, "RunConfig") and callable(m.train)


def test_package_re_exports_nothing():
    public = {name for name in vars(msconv) if not name.startswith("_")}
    submodules = {"autograd", "block", "cli", "data", "metrics", "model",
                  "msct", "tensor", "train", "viz"}
    assert public <= submodules
    assert msconv.__version__ == "0.1.0"
