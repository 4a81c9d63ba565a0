"""Import hygiene: submodules stay reachable as modules, and the package's
public names all resolve."""
import pkgutil
import types

import bqlab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bqlab.__path__))


def test_submodules_import_as_modules():
    assert "flow_derivative" in SUBMODULES
    for name in SUBMODULES:
        # `import bqlab.<name> as x` binds the package attribute, which a
        # public name of the same spelling would shadow
        scope = {}
        exec(f"import bqlab.{name} as x", scope)
        assert isinstance(scope["x"], types.ModuleType), name


def test_public_names_resolve():
    assert len(set(bqlab.__all__)) == len(bqlab.__all__)
    for name in bqlab.__all__:
        assert hasattr(bqlab, name), name
