"""In-memory spans around calls into the pfwigner modules, and self time.

The tracer times calls from outside the program: it rebinds each traced
function to a wrapper that records a span (name, parent, start, end). A
function is rebound in the module that defines it and under every name
that `cli`, `induction` and `polarisation` imported it as, because a
`from .x import f` binding is a separate reference that rebinding `x.f`
does not reach. `LorentzTransform` validation is traced by wrapping
`__post_init__` on the class.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# module -> functions defined there; "LorentzTransform.validate" is the
# class's __post_init__
TRACED = {
    "minkowski": ("LorentzTransform.validate", "boost_to", "boost_from_velocity",
                  "rotation_about", "rotation_z_to", "compose"),
    "closed_form": ("boost_phase", "rotation_phase", "rotation_phase_shift",
                    "rotation_shift_approx"),
    "induction": ("pf_wigner", "standard_wigner", "pf_standard_element", "alignment_angle",
                  "direction_in_pf", "transform_pair", "bench_pair", "phase_difference"),
    "polarisation": ("monte_carlo_malus", "malus_probability"),
    "cli": ("_emit",),
}
IMPORTERS = ("cli", "induction", "polarisation")


class Tracer:
    """Records one span per traced call while installed.

    `spans` holds [name, parent index or -1, start, end] in call order.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> None:
        """Wrap every function in TRACED; `modules` maps short name -> module."""
        lt = modules["minkowski"].LorentzTransform
        self._rebind(lt, "__post_init__",
                     self.wrap("minkowski.LorentzTransform.validate", lt.__post_init__))
        for mod_name, funcs in TRACED.items():
            for func in funcs:
                if func == "LorentzTransform.validate":
                    continue
                orig = getattr(modules[mod_name], func)
                wrapper = self.wrap(f"{mod_name}.{func}", orig)
                for owner_name in dict.fromkeys((mod_name,) + IMPORTERS):
                    owner = modules[owner_name]
                    for attr, value in list(vars(owner).items()):
                        if value is orig:
                            self._rebind(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, _, start, end), c in zip(spans, child)]


def summarise(spans: list[list]) -> tuple[dict[str, list], float]:
    """Per name [calls, self seconds], and the time covered by top-level spans."""
    per_name: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = per_name[span[0]]
        entry[0] += 1
        entry[1] += own
    covered = sum(end - start for _, parent, start, end in spans if parent < 0)
    return dict(per_name), covered
