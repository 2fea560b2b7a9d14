import pkgutil

import fracgraph as fg
from fracgraph import diagnostics, errors, flow, graph, operators, spectral

MODULES = (errors, graph, spectral, operators, flow, diagnostics)


def test_package_exports_each_module_api():
    listed = {(module, name) for module in MODULES for name in getattr(module, "__all__", ())}
    error_types = {(errors, name) for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, fg.FracGraphError)}
    exported = listed | error_types
    for module, name in exported:
        assert getattr(fg, name) is getattr(module, name), name
    # cli is bound on the package only once something imports it
    submodules = {info.name for info in pkgutil.iter_modules(fg.__path__)} - {"cli"}
    public = {name for name in dir(fg) if not name.startswith("_")} - {"cli"}
    assert public == {name for _, name in exported} | submodules
