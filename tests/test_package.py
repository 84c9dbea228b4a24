"""The package namespace: a docstring and a version, no re-exports; and
the exceptions its modules define."""

import importlib
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
