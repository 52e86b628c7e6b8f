"""In-memory call spans around the public functions and methods of the layers.

``instrument`` replaces every public function of the given modules, and every
public method and property getter of the classes they define, by a wrapper
that records one span per call.  Spans are aggregated per (name, parent) into
call count, total time and self time (total minus the time of child spans).
Classes themselves are never replaced, so ``isinstance`` and dataclass
behaviour stay intact.  A function re-bound by a from-import in another
instrumented module gets the same wrapper there, so its calls are recorded
whichever module they go through.

Nothing here names a particular function: a name that a later version of the
program deletes or renames simply records no calls.
"""

import functools
import inspect
import time


def span_name(fn):
    """``<module>.<qualname>`` with the package prefix dropped, e.g. ``bspline.gram_matrix``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Recorder:
    """Aggregated spans plus named counters computed from call arguments and results."""

    def __init__(self, clock=time.perf_counter, measures=None):
        self.clock = clock
        self.measures = measures or {}
        self.stack = []  # open spans: [name, start, time spent in children]
        self.stats = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters = {}

    def wrap(self, fn):
        name = span_name(fn)
        measure = self.measures.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [name, self.clock(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - frame[1]
                self.stack.pop()
                entry = self.stats.setdefault((name, parent), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
            if measure is not None:
                try:
                    measure(self.counters, args, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # a changed signature or result shape leaves the counter as it was
            return result

        return wrapper

    def rows(self):
        """The aggregate as JSON-ready rows ``[name, parent, calls, total_s, self_s]``."""
        return [[name, parent, *entry] for (name, parent), entry in sorted(
            self.stats.items(), key=lambda item: (item[0][0], item[0][1] or ""))]


def instrument(modules, recorder):
    """Wrap the public functions, methods and property getters of the modules."""
    owners = {module.__name__ for module in modules}
    wrappers = {}

    def wrapped(fn):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, recorder.wrap(fn))
        return wrappers[id(fn)][1]

    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) not in owners:
                continue
            if inspect.isfunction(obj):
                setattr(module, attr, wrapped(obj))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                _instrument_class(obj, wrapped)


def _instrument_class(cls, wrapped):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(member, property) and member.fget is not None:
            setattr(cls, attr, property(wrapped(member.fget), member.fset, member.fdel, member.__doc__))
        elif isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(wrapped(member.__func__)))
        elif isinstance(member, classmethod):
            setattr(cls, attr, classmethod(wrapped(member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, wrapped(member))


def self_times(rows):
    """Per span name: (calls, total_s, self_s) summed over parents."""
    out = {}
    for name, _parent, calls, total, own in rows:
        c, t, s = out.get(name, (0, 0.0, 0.0))
        out[name] = (c + calls, t + total, s + own)
    return out
