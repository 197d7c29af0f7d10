"""The benchmark's layer tracer still finds every function it times.

``bench/tracing.py`` patches pcurv functions by name; a rename in the
package would break the benchmark without failing any other test.
"""

import importlib.util
import pathlib
import sys

import pcurv.cli  # noqa: F401  (imports every module the tracer patches)

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target_and_restores_the_package():
    tracing = load_tracing()
    before = tracing.snapshot()
    originals = {
        (module, path): tracing._resolve(sys.modules[module], path)
        for _, module, path, *_ in tracing.TARGETS
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, path), original in originals.items():
            assert tracing._resolve(sys.modules[module], path).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert tracing.snapshot() == before
