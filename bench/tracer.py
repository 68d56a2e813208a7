"""Spans and counters recorded from outside the program.

The benchmark wraps public functions of each qmod layer in a worker
process; nothing under ``src/`` knows about it.  A span has a name
(``<module>.<function>`` or ``<module>.<Class>.<method>``), a start, an
end, the index of the span open when it began, its self time (duration
minus the time its child spans cover) and an optional tag describing the
call (operand shape, outcome of a report).

Modules import functions from each other by name (``verify`` and ``cli``
hold their own ``z_class_15_9``, ``surface`` holds ``form_matrix_det``),
so wrapping a function rebinds every global in every loaded ``qmod``
module that refers to the same object, not only the defining one.
"""

import functools
import sys
import time


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.selfs = []
        self.tags = []
        self._child = []
        self._stack = []

    def wrap(self, name, fn, tag=None):
        """Return ``fn`` recording one span per call.

        ``tag(args, result)`` runs after a call that returned and may
        attach a JSON-able value to its span.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, selfs, tags = self.parents, self.selfs, self.tags
        child, stack = self._child, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            selfs.append(0.0)
            tags.append(None)
            child.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - starts[idx]
                ends[idx] = end
                selfs[idx] = dur - child[idx]
                if stack:
                    child[stack[-1]] += dur
            if tag is not None:
                tags[idx] = tag(args, result)
            return result

        return traced

    def spans(self) -> dict:
        """Column-wise span table, as written to the results."""
        return {"name": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents, "self": self.selfs, "tag": self.tags}


def _qmod_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qmod" or name.startswith("qmod."))]


def patch_function(module, attr, wrapper_for):
    """Replace ``module.attr`` and every alias of it in loaded qmod modules."""
    original = getattr(module, attr)
    wrapped = wrapper_for(original)
    for mod in _qmod_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def patch_method(cls, attr, wrapper_for):
    """Replace a method on its class; classmethods keep their binding."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_for(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_for(raw))


class Counter:
    """Exact call counts of field methods, for the separate counting pass."""

    def __init__(self):
        self.counts = {}

    def wrap(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def totals(self) -> dict:
        return {name: cell[0] for name, cell in sorted(self.counts.items())}
