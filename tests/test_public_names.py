"""Every name the package exports must exist, so that a deletion cannot
leave `mckeanflow.__all__` pointing at nothing and break
`from mckeanflow import *`."""

import mckeanflow


def test_all_names_resolve():
    missing = [name for name in mckeanflow.__all__
               if not hasattr(mckeanflow, name)]
    assert not missing
    assert len(set(mckeanflow.__all__)) == len(mckeanflow.__all__)
