"""Rewrite the oracles' asserts too, so that they still run under python -O."""

import pytest

pytest.register_assert_rewrite("oracles")
