"""Protocol code reading the wall clock (both calls are violations)."""

import time
from datetime import datetime


def stamp():
    return time.time(), datetime.now()
