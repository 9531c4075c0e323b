from .core import (
    BoxDomain, ProblemId, ProblemInstance,
    decode_instance_level, evaluate, evaluate_batch, instance_agent,
    list_problems, resolve,
)
from .baselines import (
    BASELINE_NAMES, SHEKEL_PEAK_COUNTS, ShekelInstance,
    baseline_box, baseline_eval, shekel_instance,
)

__all__ = [
    "BoxDomain", "ProblemId", "ProblemInstance",
    "decode_instance_level", "evaluate", "evaluate_batch", "instance_agent",
    "list_problems", "resolve",
    "BASELINE_NAMES", "SHEKEL_PEAK_COUNTS", "ShekelInstance",
    "baseline_box", "baseline_eval", "shekel_instance",
]
