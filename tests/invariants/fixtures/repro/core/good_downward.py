"""Foundation importing sideways/down, with a TYPE_CHECKING exemption."""

from typing import TYPE_CHECKING

from repro.crypto import bigint
from repro.privacy.accountant import PrivacyAccountant

if TYPE_CHECKING:
    from repro.api.events import RunStarted


def run() -> "RunStarted":
    return bigint, PrivacyAccountant
