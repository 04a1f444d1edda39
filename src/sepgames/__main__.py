"""``python -m sepgames``: the same CLI as the ``sepgames`` executable."""

from .frontend import main

main()
