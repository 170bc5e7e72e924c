"""Layer spans recorded from outside the program.

The traced run wraps each layer's public entry point where the pipeline
looks it up (a module global or a class attribute), so the program is
never edited.  Each thread keeps its own span stack; a span's self time
is its duration minus the time its child spans covered.  Spans are held
in memory and written once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``on_result(args, result)`` hook: derives counts where the work happens.
ResultHook = Callable[[Tuple[Any, ...], Any], None]

#: (name, thread id, span id, parent span id or -1, start, end, self seconds)
Span = Tuple[str, int, int, int, float, float, float]


class LayerTracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patched: List[Tuple[object, str, object]] = []
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def wrap(
        self,
        target: object,
        attr: str,
        name: str,
        on_result: Optional[ResultHook] = None,
    ) -> None:
        """Replace ``target.attr`` by a span-recording wrapper."""
        function = vars(target)[attr]
        self._patched.append((target, attr, function))
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            # Each frame: [span id, seconds covered by child spans].
            stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append(
                    (name, threading.get_ident(), span_id, parent, start, end,
                     end - start - child)
                )
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(target, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            target, attr, function = self._patched.pop()
            setattr(target, attr, function)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, summed self seconds)."""
        calls: Dict[str, int] = defaultdict(int)
        own: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span[0]] += 1
            own[span[0]] += span[6]
        return {name: (calls[name], own[name]) for name in calls}

    def write(self, path: Path) -> None:
        """Write the held spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "thread", "id", "parent", "start", "end", "self")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
