import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

try:
    from hypothesis import settings
except ImportError:  # hypothesis is a test-only dependency; its tests skip without it
    pass
else:
    # the same examples on every run, and no example database written to disk
    settings.register_profile("weilreg", derandomize=True, database=None, deadline=None, print_blob=False)
    settings.load_profile("weilreg")
