import numpy as np
import pytest

from distill_lab.optim import AdamState, adam_step


@pytest.mark.parametrize("p", [2, 6])
def test_adam_step_on_a_stack_equals_per_row_calls(p):
    # rows share the step count; each row's moments and update are
    # bitwise those of its own Adam run, and the moments stay in place
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, p))
    rows = [row.copy() for row in stack]
    state = AdamState.for_params(stack)
    m, v = state.m, state.v
    row_states = [AdamState.for_params(row) for row in rows]
    for _ in range(5):
        grad = rng.standard_normal((3, p)) * 10.0 ** rng.uniform(-8, 8, (3, 1))
        adam_step(stack, grad, state, 0.05)
        for row, g, row_state in zip(rows, grad, row_states):
            adam_step(row, g, row_state, 0.05)
    assert state.m is m and state.v is v and state.step == 5
    assert stack.tobytes() == np.array(rows).tobytes()
    assert m.tobytes() == np.array([s.m for s in row_states]).tobytes()
    assert v.tobytes() == np.array([s.v for s in row_states]).tobytes()
