"""Span recorder for traced rounds.

`Recorder.install` wraps every public function of every braidmono module
and puts the wrapper in place of the original in each braidmono module
namespace that holds it (the package itself re-exports most of them).
Each call becomes a span; a stack of open spans gives self time, the span's
duration minus the time covered by the spans it opened.  Per-layer counts
(letters, states, relators, bytes) are read from arguments and results at
the same boundaries.  Everything stays in memory in per-name totals and is
turned into metrics by `metrics`, after `uninstall` has put the originals
back.  Only a traced round imports this module.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MODULES = ("braid", "garside", "factorization", "arrangements",
           "regeneration", "vankampen", "textio", "cli")

# Per-layer metrics in report order: (name, unit).
LAYER_METRICS = (
    ("garside.raw_of_word.calls", "count"),
    ("garside.raw_of_word.letters", "letters"),
    ("garside.raw_of_word.self_s", "s"),
    ("garside.raw_of_word.cache_entries", "count"),
    ("garside.raw_multiply.calls", "count"),
    ("garside.raw_multiply.self_s", "s"),
    ("garside.raw_inverse.calls", "count"),
    ("garside.canonical_length.max", "factors"),
    ("garside.raw_to_letters.letters", "letters"),
    ("garside.raw_to_letters.self_s", "s"),
    ("factorization.moves", "count"),
    ("factorization.moves.self_s", "s"),
    ("factorization.conjugator_letters.max", "letters"),
    ("factorization.canonical_key.calls", "count"),
    ("factorization.canonical_key.self_s", "s"),
    ("factorization.states_stored", "states"),
    ("factorization.is_delta2.self_s", "s"),
    ("arrangements.braid_monodromy.self_s", "s"),
    ("arrangements.singular_points", "count"),
    ("arrangements.conjugator_letters", "letters"),
    ("regeneration.regenerate.self_s", "s"),
    ("regeneration.complete_deficit.self_s", "s"),
    ("regeneration.placements_tried", "count"),
    ("braid.permutation_of.calls", "count"),
    ("braid.permutation_of.self_s", "s"),
    ("vankampen.presentation.self_s", "s"),
    ("vankampen.artin_action.calls", "count"),
    ("vankampen.artin_action.self_s", "s"),
    ("vankampen.relators", "count"),
    ("vankampen.relator_letters", "letters"),
    ("vankampen.abelianization.self_s", "s"),
    ("textio.parse.self_s", "s"),
    ("textio.format.self_s", "s"),
    ("textio.bytes", "bytes"),
    ("cli.main.self_s", "s"),
)


class Recorder:
    def __init__(self) -> None:
        # name -> [calls, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []
        self._cache_entries = None

    # --- hooks: per-layer counts read at the span boundary ----------------

    def _hooks(self):
        c, mx = self.counts, self.maxima

        def of_word(args, res):
            c["raw_of_word.letters"] += len(args[1])
            mx["canonical_length"] = max(mx["canonical_length"], len(res[1]))

        def multiply(args, res):
            mx["canonical_length"] = max(mx["canonical_length"], len(res[1]))

        def to_letters(args, res):
            c["raw_to_letters.letters"] += len(res)

        def move(offset):
            def hook(args, res):
                k = args[1] - 1 + offset
                mx["conjugator_letters"] = max(
                    mx["conjugator_letters"], len(res.factors[k].conjugator.letters))
            return hook

        def explored(args, res):
            c["states_stored"] += res.explored

        def points(args, res):
            c["singular_points"] += len(res)

        def monodromy(args, res):
            c["conjugator_letters"] += sum(len(f.conjugator.letters) for f in res.factors)

        def completion(args, res):
            c["placements_tried"] += res.tried

        def pres(args, res):
            c["relators"] += len(res.relators)
            c["relator_letters"] += sum(len(r.letters) for r in res.relators)

        def parsed(args, res):
            c["textio.bytes"] += len(args[0])

        def formatted(args, res):
            c["textio.bytes"] += len(res)

        hooks = {
            "garside.raw_of_word": of_word,
            "garside.raw_multiply": multiply,
            "garside.raw_to_letters": to_letters,
            "factorization.hurwitz_move": move(0),
            "factorization.hurwitz_move_inverse": move(1),
            "factorization.hurwitz_equivalent": explored,
            "factorization.orbit_enumerate": explored,
            "arrangements.singular_points": points,
            "arrangements.braid_monodromy": monodromy,
            "regeneration.complete_deficit": completion,
            "vankampen.presentation": pres,
        }
        return hooks, parsed, formatted

    def _wrap(self, name: str, fn, hook):
        stat = self.spans[name]
        stack = self._open
        clock = time.process_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dur - child
                if stack:
                    stack[-1] += dur
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self, bm) -> None:
        self._raw_of_word = bm.garside.raw_of_word
        hooks, parsed, formatted = self._hooks()
        namespaces = [m for n, m in sys.modules.items()
                      if n == "braidmono" or n.startswith("braidmono.")]
        for short in MODULES:
            module = getattr(bm, short)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                name = f"{short}.{attr}"
                hook = hooks.get(name)
                if short == "textio":
                    hook = parsed if attr.startswith("parse_") else formatted
                wrapper = self._wrap(name, fn, hook)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()
        info = getattr(self._raw_of_word, "cache_info", None)
        self._cache_entries = info().currsize if info else 0

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics; times in seconds are multiplied by `scale`."""
        s, c, mx = self.spans, self.counts, self.maxima

        def self_s(*names):
            return sum(s[n][1] for n in names if n in s)

        def calls(*names):
            return sum(s[n][0] for n in names if n in s)

        textio = [n for n in s if n.startswith("textio.")]
        values = {
            "garside.raw_of_word.calls": calls("garside.raw_of_word"),
            "garside.raw_of_word.letters": c["raw_of_word.letters"],
            "garside.raw_of_word.self_s": self_s("garside.raw_of_word"),
            "garside.raw_of_word.cache_entries": self._cache_entries,
            "garside.raw_multiply.calls": calls("garside.raw_multiply"),
            "garside.raw_multiply.self_s": self_s("garside.raw_multiply"),
            "garside.raw_inverse.calls": calls("garside.raw_inverse"),
            "garside.canonical_length.max": mx["canonical_length"],
            "garside.raw_to_letters.letters": c["raw_to_letters.letters"],
            "garside.raw_to_letters.self_s": self_s("garside.raw_to_letters"),
            "factorization.moves": calls("factorization.hurwitz_move",
                                         "factorization.hurwitz_move_inverse"),
            "factorization.moves.self_s": self_s("factorization.hurwitz_move",
                                                 "factorization.hurwitz_move_inverse"),
            "factorization.conjugator_letters.max": mx["conjugator_letters"],
            "factorization.canonical_key.calls": calls("factorization.canonical_key"),
            "factorization.canonical_key.self_s": self_s("factorization.canonical_key"),
            "factorization.states_stored": c["states_stored"],
            "factorization.is_delta2.self_s": self_s("factorization.is_delta2_factorization"),
            "arrangements.braid_monodromy.self_s": self_s("arrangements.braid_monodromy"),
            "arrangements.singular_points": c["singular_points"],
            "arrangements.conjugator_letters": c["conjugator_letters"],
            "regeneration.regenerate.self_s": self_s("regeneration.regenerate"),
            "regeneration.complete_deficit.self_s": self_s("regeneration.complete_deficit"),
            "regeneration.placements_tried": c["placements_tried"],
            "braid.permutation_of.calls": calls("braid.permutation_of"),
            "braid.permutation_of.self_s": self_s("braid.permutation_of"),
            "vankampen.presentation.self_s": self_s("vankampen.presentation"),
            "vankampen.artin_action.calls": calls("vankampen.artin_action"),
            "vankampen.artin_action.self_s": self_s("vankampen.artin_action"),
            "vankampen.relators": c["relators"],
            "vankampen.relator_letters": c["relator_letters"],
            "vankampen.abelianization.self_s": self_s("vankampen.abelianization_rank"),
            "textio.parse.self_s": self_s(*[n for n in textio if ".parse_" in n]),
            "textio.format.self_s": self_s(*[n for n in textio if ".format_" in n]),
            "textio.bytes": c["textio.bytes"],
            "cli.main.self_s": self_s("cli.main"),
        }
        return {name: values[name] * scale if unit == "s" else values[name]
                for name, unit in LAYER_METRICS}
