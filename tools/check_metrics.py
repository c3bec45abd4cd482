#!/usr/bin/env python3
"""Lint the daemon's live telemetry surfaces (PR 10 obs-gate).

Two subcommands:

  prom SCRAPE [SCRAPE2] [--require name,name,...]
      Lint one Prometheus text-exposition file (as returned by the
      serve `metrics` op / `sevuldet top --prom`):
        - metric and label names match the exposition charset
          ([a-zA-Z_:][a-zA-Z0-9_:]* and [a-zA-Z_][a-zA-Z0-9_]*)
        - every sample's metric family has a preceding # TYPE line
        - counter samples are finite and non-negative
        - histogram buckets are cumulative: counts non-decreasing in
          ascending le order, the +Inf bucket present and equal to
          <name>_count, and <name>_sum present
      With a second scrape from the same daemon taken later, counters
      must be monotonic: every counter in SCRAPE must exist in SCRAPE2
      with a value >= the first scrape's (a registry reset or a
      non-monotonic export would break rate() on a real scraper).
      --require fails unless every listed metric family is present in
      (the first) SCRAPE.

  access-log FILE [--expect-trace-id ID]
      Validate a structured access log: every line is a JSON object
      with schema_version 1 and the full v1 field set at the right
      types (trace_id non-empty, timings/bytes non-negative, op known).
      --expect-trace-id fails unless some line carries that trace_id.

Exit codes: 0 ok, 1 validation failure, 2 usage/IO error.
"""

import argparse
import json
import math
import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

KNOWN_OPS = {"scan", "explain", "scan-tree", "report-status", "metrics",
             "shutdown", "?"}

ACCESS_LOG_FIELDS = {
    "schema_version": (int,),
    "trace_id": (str,),
    "op": (str,),
    "unix_seconds": (int, float),
    "request_bytes": (int,),
    "response_bytes": (int,),
    "queue_ms": (int, float),
    "infer_ms": (int, float),
    "total_ms": (int, float),
    "batch_size": (int,),
    "backend": (str,),
    "error": (str,),
}


class Lint:
    def __init__(self):
        self.errors = []

    def error(self, message):
        self.errors.append(message)

    def report(self, what):
        if self.errors:
            for message in self.errors:
                print(f"FAIL [{what}] {message}")
            return 1
        print(f"OK [{what}]")
        return 0


def parse_labels(text, lint, context):
    """Parse the {k="v",...} label block; returns dict or None."""
    labels = {}
    i = 0
    while i < len(text):
        match = re.match(r'([a-zA-Z_][a-zA-Z0-9_]*)="', text[i:])
        if match is None:
            lint.error(f"{context}: malformed label block at '{text[i:]}'")
            return None
        name = match.group(1)
        i += match.end()
        value = []
        while i < len(text):
            c = text[i]
            if c == "\\":
                if i + 1 >= len(text):
                    lint.error(f"{context}: dangling escape in label value")
                    return None
                esc = text[i + 1]
                if esc not in ('\\', '"', 'n'):
                    lint.error(f"{context}: bad escape '\\{esc}' in label value")
                    return None
                value.append({"\\": "\\", '"': '"', "n": "\n"}[esc])
                i += 2
            elif c == '"':
                i += 1
                break
            else:
                value.append(c)
                i += 1
        else:
            lint.error(f"{context}: unterminated label value")
            return None
        labels[name] = "".join(value)
        if i < len(text) and text[i] == ",":
            i += 1
    return labels


def parse_exposition(path, lint):
    """Parse a text exposition into (types, samples).

    types: family name -> declared type.
    samples: list of (name, labels-dict, float value, line number).
    """
    types = {}
    samples = []
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = re.match(r"^# TYPE (\S+) (counter|gauge|histogram|summary|untyped)$", line)
            if match:
                name, family_type = match.groups()
                if not METRIC_NAME_RE.match(name):
                    lint.error(f"{path}:{lineno}: bad metric name '{name}'")
                if name in types:
                    lint.error(f"{path}:{lineno}: duplicate TYPE for '{name}'")
                types[name] = family_type
            elif not line.startswith("# HELP"):
                lint.error(f"{path}:{lineno}: unrecognized comment '{line}'")
            continue
        match = re.match(r"^(\S+?)(\{(.*)\})? (\S+)$", line)
        if match is None:
            lint.error(f"{path}:{lineno}: unparseable sample line '{line}'")
            continue
        name, _, label_text, value_text = match.groups()
        if not METRIC_NAME_RE.match(name):
            lint.error(f"{path}:{lineno}: bad metric name '{name}'")
            continue
        labels = {}
        if label_text is not None:
            labels = parse_labels(label_text, lint, f"{path}:{lineno}")
            if labels is None:
                continue
            for label_name in labels:
                if not LABEL_NAME_RE.match(label_name):
                    lint.error(f"{path}:{lineno}: bad label name '{label_name}'")
        try:
            value = float(value_text)
        except ValueError:
            lint.error(f"{path}:{lineno}: bad sample value '{value_text}'")
            continue
        samples.append((name, labels, value, lineno))
    return types, samples


def family_of(name):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def lint_exposition(path, lint):
    types, samples = parse_exposition(path, lint)
    counters = {}
    histograms = {}
    for name, labels, value, lineno in samples:
        family = family_of(name)
        declared = types.get(name) or types.get(family)
        if declared is None:
            lint.error(f"{path}:{lineno}: sample '{name}' has no # TYPE line")
            continue
        if declared == "counter":
            if not math.isfinite(value) or value < 0:
                lint.error(f"{path}:{lineno}: counter '{name}' value {value} "
                           "is not finite/non-negative")
            counters[name] = value
        if declared == "histogram":
            hist = histograms.setdefault(family, {"buckets": [], "sum": None,
                                                  "count": None})
            if name.endswith("_bucket"):
                if "le" not in labels:
                    lint.error(f"{path}:{lineno}: bucket without le label")
                    continue
                le = labels["le"]
                bound = math.inf if le == "+Inf" else float(le)
                hist["buckets"].append((bound, value, lineno))
            elif name.endswith("_sum"):
                hist["sum"] = value
            elif name.endswith("_count"):
                hist["count"] = value
            else:
                lint.error(f"{path}:{lineno}: histogram family '{family}' has "
                           f"a bare sample '{name}'")
    for family, hist in sorted(histograms.items()):
        buckets = hist["buckets"]
        if not buckets:
            lint.error(f"{path}: histogram '{family}' has no buckets")
            continue
        bounds = [b[0] for b in buckets]
        if bounds != sorted(bounds):
            lint.error(f"{path}: histogram '{family}' buckets not in "
                       "ascending le order")
        for (lo_bound, lo_count, _), (hi_bound, hi_count, lineno) in zip(
                buckets, buckets[1:]):
            if hi_count < lo_count:
                lint.error(f"{path}:{lineno}: histogram '{family}' bucket "
                           f"le={hi_bound} count {hi_count} < le={lo_bound} "
                           f"count {lo_count} (not cumulative)")
        if buckets[-1][0] != math.inf:
            lint.error(f"{path}: histogram '{family}' missing +Inf bucket")
        if hist["count"] is None:
            lint.error(f"{path}: histogram '{family}' missing _count")
        elif buckets[-1][0] == math.inf and buckets[-1][1] != hist["count"]:
            lint.error(f"{path}: histogram '{family}' +Inf bucket "
                       f"{buckets[-1][1]} != _count {hist['count']}")
        if hist["sum"] is None:
            lint.error(f"{path}: histogram '{family}' missing _sum")
    return types, counters


def cmd_prom(args):
    lint = Lint()
    types, counters = lint_exposition(args.scrape, lint)
    if args.require:
        for name in args.require.split(","):
            name = name.strip()
            if name and name not in types:
                lint.error(f"{args.scrape}: required metric '{name}' missing")
    if args.scrape2:
        lint2 = Lint()
        _, counters2 = lint_exposition(args.scrape2, lint2)
        lint.errors.extend(lint2.errors)
        for name, value in sorted(counters.items()):
            if name not in counters2:
                lint.error(f"{args.scrape2}: counter '{name}' present in first "
                           "scrape but missing from second")
            elif counters2[name] < value:
                lint.error(f"{args.scrape2}: counter '{name}' decreased "
                           f"({value} -> {counters2[name]}) — not monotonic")
    return lint.report("prom")


def cmd_access_log(args):
    lint = Lint()
    try:
        with open(args.log) as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        print(f"error: cannot read {args.log}: {error}", file=sys.stderr)
        return 2
    if not any(line.strip() for line in lines):
        lint.error(f"{args.log}: empty access log")
    seen_trace_ids = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            lint.error(f"{args.log}:{lineno}: not valid JSON ({error})")
            continue
        if not isinstance(record, dict):
            lint.error(f"{args.log}:{lineno}: line is not a JSON object")
            continue
        for field, field_types in ACCESS_LOG_FIELDS.items():
            if field not in record:
                lint.error(f"{args.log}:{lineno}: missing field '{field}'")
            elif not isinstance(record[field], field_types) or isinstance(
                    record[field], bool):
                lint.error(f"{args.log}:{lineno}: field '{field}' has type "
                           f"{type(record[field]).__name__}")
        for field in set(record) - set(ACCESS_LOG_FIELDS):
            lint.error(f"{args.log}:{lineno}: unknown field '{field}'")
        if record.get("schema_version") != 1:
            lint.error(f"{args.log}:{lineno}: schema_version "
                       f"{record.get('schema_version')!r} != 1")
        if not record.get("trace_id"):
            lint.error(f"{args.log}:{lineno}: empty trace_id")
        else:
            seen_trace_ids.add(record["trace_id"])
        if record.get("op") not in KNOWN_OPS:
            lint.error(f"{args.log}:{lineno}: unknown op {record.get('op')!r}")
        for field in ("request_bytes", "response_bytes", "queue_ms",
                      "infer_ms", "total_ms", "batch_size", "unix_seconds"):
            value = record.get(field)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if not math.isfinite(value) or value < 0:
                    lint.error(f"{args.log}:{lineno}: field '{field}' value "
                               f"{value} is not finite/non-negative")
    if args.expect_trace_id and args.expect_trace_id not in seen_trace_ids:
        lint.error(f"{args.log}: expected trace_id '{args.expect_trace_id}' "
                   "not found in any line")
    return lint.report("access-log")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    prom = sub.add_parser("prom", help="lint Prometheus exposition file(s)")
    prom.add_argument("scrape")
    prom.add_argument("scrape2", nargs="?", default=None,
                      help="later scrape for counter-monotonicity check")
    prom.add_argument("--require", default="",
                      help="comma-separated metric families that must exist")
    prom.set_defaults(func=cmd_prom)
    access = sub.add_parser("access-log", help="validate access-log JSON lines")
    access.add_argument("log")
    access.add_argument("--expect-trace-id", default=None)
    access.set_defaults(func=cmd_access_log)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
