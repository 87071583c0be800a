"""The package namespace re-exports nothing; callers import its modules.  No module reads
the environment."""

import re
import types
from pathlib import Path

import tfnet
from tfnet import interpret

# what Python gives every package, plus the version; an export list would add one more
PACKAGE_DUNDERS = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                   "__name__", "__package__", "__path__", "__spec__", "__version__"}


def test_package_exports_nothing_and_pruned_names_are_gone():
    assert {name for name in vars(tfnet) if name.startswith("__")} <= PACKAGE_DUNDERS
    assert tfnet.__version__
    assert all(isinstance(value, types.ModuleType)
               for name, value in vars(tfnet).items() if not name.startswith("_"))
    pruned = {"reference_tft", "window_signal", "export_representations",
              "write_representations_csv", "separability_ratio",
              "overall_frequency_response", "_layer_kernels", "KernelGrid", "tfconv",
              "build_backbone", "BandReport", "BandPeak"}
    assert not pruned & (set(dir(tfnet)) | set(dir(interpret)))


def test_no_module_reads_the_environment():
    """Every setting goes through ``cli.Config.get``, so ``config.echo`` records it."""
    for path in sorted(Path(tfnet.__file__).parent.glob("*.py")):
        assert not re.search(r"\b(environ|getenv)\b", path.read_text()), path.name
