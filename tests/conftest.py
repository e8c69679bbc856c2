import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_hypothesis_home = None


# Hypothesis caches the constants of the local modules it imports under its
# home directory, ./.hypothesis unless set, from collection on and even with
# database=None; this run's cache goes to a temporary directory instead.
def pytest_configure(config):
    global _hypothesis_home
    _hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(_hypothesis_home, ignore_errors=True)
